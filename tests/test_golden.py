"""Golden CSV bytes: every listed command must write exactly the committed digest.

``tests/golden.json`` maps each command line (its argv joined by single
spaces) to the sha256 of the CSV that ``qclone.cli.main`` writes for it.
Cases with short output also store the CSV itself, so a mismatch there
names the rows that differ.  Any byte change shows up as a manifest diff:
regenerate it with ``PYTHONPATH=src python tests/test_golden.py`` only for
a deliberate change, and say which commands changed and why.

``python tests/test_golden.py --check "fig1 --grid-points 11"`` checks the
CSV on stdin against one case, for output of the installed console script.
"""

import difflib
import hashlib
import json
import math
import pathlib

import pytest

from qclone.cli import main

MANIFEST = pathlib.Path(__file__).with_name("golden.json")
#: outputs up to this many bytes are stored in the manifest as text too.
STORE_CSV_MAX_BYTES = 2048


def golden_argvs() -> list[list[str]]:
    """The command lines the manifest pins."""
    singlet = 1.0 / math.sqrt(2.0)
    # fig2 and fig4 at the largest grid write a million rows each
    cases = [["fig1"], ["fig2"], ["fig1", "--grid-points", "11"], ["fig2", "--grid-points", "1001"]]
    for branch in ("upper", "lower"):
        cases += [
            ["fig3", "--branch", branch],
            ["fig4", "--branch", branch],
            ["fig5", "--branch", branch],
            ["fig3", "--branch", branch, "--grid-points", "1001"],
            ["fig4", "--branch", branch, "--grid-points", "1001"],
            # fig5's one quadrature pass at the largest grid
            ["fig5", "--branch", branch, "--grid-points", "1001"],
        ]
    for n in ("11", "41"):
        for alpha in ("0.6", "0.9"):
            cases.append(["fig2", "--alpha", alpha, "--grid-points", n])
        for branch in ("upper", "lower"):
            cases.append(["fig4", "--branch", branch, "--grid-points", n])
    cases += [
        ["mean", "--machine", "wzcm"],
        ["mean", "--machine", "scm"],
        ["mean", "--machine", "acm", "--s1", "0.7", "--s2", "0.48"],
        ["mean", "--machine", "acm", "--s1", "0.355", "--s2", "0.355"],
    ]
    alphas = ["0", "0.3", "0.6", repr(singlet - 1e-3), repr(singlet), repr(singlet + 1e-3), "1"]
    machines = [["wzcm"], ["scm"], ["scm", "--clones", "5"], ["acm", "--s1", "0.8"]]
    for command in ("clone", "entangle"):
        for machine in machines:
            for alpha in alphas:
                cases.append([command, "--machine", *machine, "--alpha", alpha])
    return cases


def render(argv: list[str], tmp_dir: pathlib.Path) -> bytes:
    path = tmp_dir / "out.csv"
    assert main(argv + ["--output", str(path)]) == 0
    return path.read_bytes()


#: the committed cases; empty only while the manifest is being first written.
GOLDEN = json.loads(MANIFEST.read_text())["cases"] if MANIFEST.exists() else {}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key, tmp_path):
    want = GOLDEN[key]
    data = render(key.split(" "), tmp_path)
    got = hashlib.sha256(data).hexdigest()
    if got == want["sha256"]:
        return
    detail = ""
    if "csv" in want:
        now = data.decode("ascii").splitlines()
        diff = difflib.unified_diff(want["csv"].splitlines(), now, "golden", "now", lineterm="")
        detail = "\n" + "\n".join(diff)
    pytest.fail(f"{key}: sha256 {got} != golden {want['sha256']}{detail}")


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest_over_a_longer_file(key, tmp_path):
    # --output rewrites in place: the CSV over a longer file leaves no old byte
    want = GOLDEN[key]
    (tmp_path / "out.csv").write_bytes(b"Z" * (want["bytes"] + 4096))
    data = render(key.split(" "), tmp_path)
    assert b"Z" not in data
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


def test_manifest_lists_every_case():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in golden_argvs())


def write_manifest(tmp_dir: pathlib.Path) -> None:
    cases = {}
    for argv in golden_argvs():
        data = render(argv, tmp_dir)
        entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if len(data) <= STORE_CSV_MAX_BYTES:
            entry["csv"] = data.decode("ascii")
        cases[" ".join(argv)] = entry
    MANIFEST.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:2] == ["--check"]:
        key = sys.argv[2]
        got = hashlib.sha256(sys.stdin.buffer.read()).hexdigest()
        if got != GOLDEN[key]["sha256"]:
            sys.exit(f"{key}: sha256 {got} != golden {GOLDEN[key]['sha256']}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            write_manifest(pathlib.Path(tmp))
