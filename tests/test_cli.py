"""End-to-end checks of the console entry point.

Each command is run in process through main(); stdout is parsed back and
compared against the library API, and the failure paths are checked for
their exit codes and one-line diagnostics.
"""

import errno
import io
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qclone.analysis
import qclone.cli
from qclone.analysis import (
    QuadratureConvergenceError,
    acm_alpha_surface,
    acm_region_grid,
    family_eof,
    mean_entanglement,
    uniform_grid,
)
from qclone.cli import GRID_POINTS_MAX, main
from qclone.cloners import acm_clone_closed, scm_shrink_factor
from qclone.entanglement import concurrence
from qclone.cloners import wzcm_family_clone


def parse_csv(text):
    config = {}
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            config[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return config, header, rows


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mean_wzcm_matches_api(capsys):
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm"])
    assert rc == 0 and err == ""
    config, header, rows = parse_csv(out)
    assert config["machine"] == "wzcm"
    assert header == ["value", "abs_error_estimate", "evaluations"]
    value = float(rows[0][0])
    want = mean_entanglement("wzcm", 1e-7).value
    assert abs(value - want) < 1e-8
    assert int(rows[0][2]) > 0


def test_mean_acm_requires_both_shrinks(capsys):
    rc, out, err = run_cli(capsys, ["mean", "--machine", "acm", "--s1", "0.8"])
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and "--s2" in err


def test_mean_rejects_point_outside_region(capsys):
    rc, out, err = run_cli(
        capsys, ["mean", "--machine", "acm", "--s1", "0.9", "--s2", "0.9"]
    )
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "region" in err


def test_mean_rejects_stray_shrink_flags(capsys):
    rc, _, err = run_cli(capsys, ["mean", "--machine", "scm", "--s1", "0.5"])
    assert rc == 2 and "--s1" in err


def test_mean_rejects_unreachable_tolerance(capsys):
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm", "--quad-tol", "1e-12"])
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "quad-tol" in err


@pytest.mark.parametrize("command", ["mean", "fig5"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_exits_two(capsys, command, tol):
    argv = [command, f"--quad-tol={tol}"]
    if command == "mean":
        argv += ["--machine", "scm"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "quad-tol" in err and "finite" in err


def test_back_to_back_calls_leave_no_state(capsys, tmp_path):
    # the parser is built once per process; every call must start from
    # the defaults, not from the flags of the call before it
    rc, _, _ = run_cli(
        capsys, ["entangle", "--machine", "acm", "--alpha", "0.6", "--s1", "0.8"]
    )
    assert rc == 0
    rc, out, err = run_cli(capsys, ["entangle", "--machine", "wzcm", "--alpha", "0.6"])
    assert rc == 0 and err == ""
    assert "s1" not in parse_csv(out)[0]
    path = tmp_path / "fig.csv"
    rc, out, _ = run_cli(
        capsys, ["fig3", "--grid-points", "5", "--branch", "lower", "--output", str(path)]
    )
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, ["fig3", "--grid-points", "7"])
    assert rc == 0 and out != ""
    config, _, rows = parse_csv(out)
    assert config["branch"] == "upper" and config["grid_points"] == "7" and len(rows) == 7
    rc, out, _ = run_cli(capsys, ["mean", "--machine", "acm", "--s1", "0.7", "--s2", "0.48"])
    assert rc == 0
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm"])
    assert rc == 0 and err == ""
    config, _, _ = parse_csv(out)
    assert config["quad_tol"] == "1e-07" and "s1" not in config


def test_quadrature_failure_exits_one(capsys, monkeypatch):
    def explode(machine, tol):
        raise QuadratureConvergenceError(
            f"mean clone entanglement ({machine}): no convergence"
        )

    monkeypatch.setattr(qclone.analysis, "mean_entanglement", explode)
    rc, out, err = run_cli(capsys, ["mean", "--machine", "scm"])
    assert rc == 1
    assert out == ""
    assert "numeric failure" in err and "scm" in err


def test_real_convergence_failures_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(qclone.analysis, "GL_LADDER", (2,))
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm", "--quad-tol", "1e-10"])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "numeric failure" in err and "s = 1.0" in err

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rc, out, err = run_cli(capsys, ["entangle", "--machine", "acm", "--alpha", "0.6", "--s1", "0.8"])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "numeric failure" in err and "eigensolve failed" in err

    def fail_svd(a, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.undo()
    monkeypatch.setattr(np.linalg, "svd", fail_svd)
    rc, out, err = run_cli(capsys, ["entangle", "--machine", "wzcm", "--alpha", "0.6"])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "numeric failure" in err and "SVD did not converge" in err


def test_clone_output_matches_closed_form(capsys):
    rc, out, _ = run_cli(
        capsys, ["clone", "--machine", "acm", "--alpha", "0.6", "--s1", "0.8"]
    )
    assert rc == 0
    config, header, rows = parse_csv(out)
    assert header == ["row", "col", "re", "im"]
    assert len(rows) == 16
    want = acm_clone_closed(0.6, 0.8)
    for i, j, re, im in rows:
        got = float(re) + 1j * float(im)
        assert abs(got - want[int(i), int(j)]) < 1e-8


def test_clone_rejects_mismatched_flags(capsys):
    rc, _, err = run_cli(
        capsys, ["clone", "--machine", "wzcm", "--alpha", "0.5", "--s1", "0.5"]
    )
    assert rc == 2 and "--s1" in err
    rc, _, err = run_cli(
        capsys, ["clone", "--machine", "acm", "--alpha", "0.5", "--clones", "3"]
    )
    assert rc == 2 and "--clones" in err
    rc, _, err = run_cli(capsys, ["clone", "--machine", "acm", "--alpha", "0.5"])
    assert rc == 2 and "--s1" in err
    rc, _, err = run_cli(capsys, ["clone", "--machine", "scm", "--alpha", "1.5"])
    assert rc == 2 and "--alpha" in err


@pytest.mark.parametrize("command", ["clone", "entangle"])
@pytest.mark.parametrize("clones", [1, 0, -3])
def test_too_few_clones_is_a_usage_error(capsys, command, clones):
    # the count is checked once, by scm_shrink_factor, and its message is
    # reported as a usage error
    argv = [command, "--machine", "scm", "--alpha", "0.6", "--clones", str(clones)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"qclone: error: --clones: clone count must be at least 2, got {clones}\n"


def test_entangle_reports_match_api(capsys):
    rc, out, _ = run_cli(capsys, ["entangle", "--machine", "wzcm", "--alpha", "0.6"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header[:3] == ["alpha", "concurrence", "eof"]
    assert header[-1] == "fidelity"
    report = concurrence(wzcm_family_clone(0.6))
    assert abs(float(rows[0][1]) - report.concurrence) < 1e-8
    assert abs(float(rows[0][2]) - report.eof) < 1e-8
    lambdas = [float(x) for x in rows[0][3:7]]
    assert all(abs(a - b) < 1e-8 for a, b in zip(lambdas, report.lambdas))


def test_fig1_matches_curve_api(capsys):
    rc, out, _ = run_cli(capsys, ["fig1", "--grid-points", "11"])
    assert rc == 0
    config, header, rows = parse_csv(out)
    assert header == ["alpha", "eof_wzcm", "eof_scm"]
    assert config["grid_points"] == "11"
    assert len(rows) == 11
    grid = uniform_grid(11)
    wz = family_eof(grid, 1.0)
    sc = family_eof(grid, scm_shrink_factor(2))
    for row, alpha, e_wz, e_sc in zip(rows, grid, wz, sc):
        assert abs(float(row[0]) - alpha) < 1e-8
        assert abs(float(row[1]) - e_wz) < 1e-8
        assert abs(float(row[2]) - e_sc) < 1e-8


def test_fig2_marks_excluded_points_and_degeneracy(capsys):
    rc, out, _ = run_cli(capsys, ["fig2", "--grid-points", "11"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["s1", "s2", "avg_eof", "degenerate"]
    assert len(rows) == 121
    cells = {(row[0], row[1]): row for row in rows}
    assert cells[("0", "0")][2] == "outside_region"
    assert cells[("0.5", "0.5")][2] != "outside_region"
    assert cells[("1", "0")][3] == "true"
    assert cells[("0.5", "0.5")][3] == "false"
    for row in rows:
        assert row[3] in ("true", "false")


def test_fig3_degenerate_endpoints_tagged(capsys):
    rc, out, _ = run_cli(capsys, ["fig3", "--grid-points", "11"])
    assert rc == 0
    config, header, rows = parse_csv(out)
    assert header == ["s1", "s2", "avg_eof", "degenerate"]
    assert config["branch"] == "upper"
    assert rows[0][3] == "true" and rows[-1][3] == "true"
    assert all(row[3] == "false" for row in rows[1:-1])


def test_fig4_layout(capsys):
    rc, out, _ = run_cli(capsys, ["fig4", "--grid-points", "5"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == ["alpha", "s1", "s2", "avg_eof", "degenerate"]
    assert len(rows) == 25


def test_fig5_reference_columns_are_constant(capsys):
    rc, out, _ = run_cli(capsys, ["fig5", "--grid-points", "5", "--quad-tol", "1e-6"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header == [
        "s1",
        "s2",
        "mean_eof_acm",
        "mean_eof_wzcm",
        "mean_eof_scm",
        "degenerate",
    ]
    assert len(rows) == 5
    assert len({row[3] for row in rows}) == 1
    assert len({row[4] for row in rows}) == 1
    assert abs(float(rows[0][3]) - 0.59026) < 1e-4
    assert abs(float(rows[0][4]) - 0.11747) < 1e-4


def test_output_flag_writes_identical_bytes(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        rc, out, _ = run_cli(capsys, ["fig3", "--grid-points", "21", "--output", str(path)])
        assert rc == 0
        assert out == ""
    first = a.read_bytes()
    assert first == b.read_bytes()
    assert first.endswith(b"\n") and b"\r" not in first


def test_stdout_and_file_output_agree(capsys, tmp_path):
    path = tmp_path / "out.csv"
    rc, out, _ = run_cli(capsys, ["fig1", "--grid-points", "7", "--output", str(path)])
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, ["fig1", "--grid-points", "7"])
    assert rc == 0
    assert path.read_text() == out


def test_block_boundaries_leave_the_bytes_unchanged(capsys, monkeypatch):
    # block sizes that split the table unevenly, evenly and not at all
    argvs = (
        ["fig2", "--grid-points", "11"],
        ["fig4", "--grid-points", "9"],
        ["fig5", "--grid-points", "5"],
    )
    whole = [run_cli(capsys, argv)[1] for argv in argvs]
    for rows in (1, 7, 11, 100000):
        monkeypatch.setattr(qclone.cli, "BLOCK_ROWS", rows)
        assert [run_cli(capsys, argv)[1] for argv in argvs] == whole


def test_failures_write_nothing_to_the_output_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    rc, _, err = run_cli(capsys, ["fig2", "--grid-points", "1002", "--output", str(path)])
    assert rc == 2 and "--grid-points" in err
    monkeypatch.setattr(qclone.analysis, "GL_LADDER", (2,))
    rc, _, err = run_cli(capsys, ["fig5", "--quad-tol", "1e-10", "--output", str(path)])
    assert rc == 1 and "numeric failure" in err
    assert not path.exists()


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unopenable_output_exits_two(capsys, tmp_path, where):
    path = tmp_path / "absent" / "out.csv" if where == "missing_directory" else tmp_path
    rc, out, err = run_cli(capsys, ["fig1", "--grid-points", "5", "--output", str(path)])
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("qclone: error: --output: ")
    assert str(path) in err


def test_grid_validation(capsys):
    rc, _, err = run_cli(capsys, ["fig1", "--grid-points", "1"])
    assert rc == 2 and "grid-points" in err
    rc, out, _ = run_cli(capsys, ["fig1", "--grid-points", str(GRID_POINTS_MAX)])
    assert rc == 0 and len(parse_csv(out)[2]) == GRID_POINTS_MAX


@pytest.mark.parametrize("command", ["fig2", "fig4"])
def test_grid_points_above_the_maximum_exit_two(capsys, command):
    too_many = str(GRID_POINTS_MAX + 1)
    rc, out, err = run_cli(capsys, [command, "--grid-points", too_many])
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and f"at most {GRID_POINTS_MAX}" in err


def test_unknown_arguments_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["fig1", "--bogus"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["mean", "--machine", "qcm"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


#: a sample value of each flag of each command but --output, and the
#: flags the command requires.
FLAG_SAMPLES = {
    "fig1": ({"--grid-points": "11"}, []),
    "fig2": ({"--alpha": "0.6", "--grid-points": "11"}, []),
    "fig3": ({"--alpha": "0.6", "--branch": "lower", "--grid-points": "11"}, []),
    "fig4": ({"--branch": "lower", "--grid-points": "11"}, []),
    "fig5": ({"--branch": "lower", "--grid-points": "3", "--quad-tol": "1e-6"}, []),
    "clone": ({"--clones": "3", "--s1": "0.8"}, ["--machine", "scm", "--alpha", "0.6"]),
    "entangle": ({"--clones": "3", "--s1": "0.8"}, ["--machine", "acm", "--alpha", "0.6"]),
    "mean": ({"--s1": "0.8", "--s2": "0.3", "--quad-tol": "1e-6"}, ["--machine", "acm"]),
}


def oracle_argvs():
    argvs = [[], ["-h"], ["--help"], ["fig9"], ["--output", "o", "fig1"], ["fig1", "extra"]]
    for command, (flags, required) in FLAG_SAMPLES.items():
        argvs += [[command, *required], [command, "-h"], [command, *required, "--bogus"]]
        for flag, value in {**flags, "--output": "out.csv"}.items():
            argvs += [
                [command, *required, flag, value],
                [command, *required, f"{flag}={value}"],
                [command, *required, flag, value, flag, value],
            ]
    argvs += [
        ["fig1", "--grid", "11"],
        ["fig1", "--grid-points", "5", "--grid-points", "7"],
        ["fig1", "--grid-points", "11", "--bogus", "x", "y"],
        ["fig1", "--", "x"],
        ["fig2", "--alpha", "-0.5"],
        ["fig2", "--alpha", "abc"],
        ["fig1", "--grid-points", "x"],
        ["fig3", "--branch", "middle"],
        ["mean", "--machine", "qcm"],
        ["mean", "--machine", "acm", "--s", "0.5"],
        ["clone", "--alpha", "0.6"],
        ["entangle", "--machine", "wzcm", "--alpha"],
        ["fig1", "--help=x"],
    ]
    return argvs


def parse_outcome(capsys, parse, argv):
    """What a parse gives: its namespace or exit code, then stdout and stderr."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", oracle_argvs(), ids=" ".join)
def test_parse_at_the_subcommand_matches_the_full_parser(capsys, argv):
    want = parse_outcome(capsys, qclone.cli._parser().parse_args, argv)
    assert parse_outcome(capsys, qclone.cli._parse, argv) == want


class FailingWriter(io.StringIO):
    """A text stream whose every write raises ``exc``."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EPIPE])
@pytest.mark.parametrize("target", ["stdout", "file"])
def test_write_failures_exit_one(capsys, monkeypatch, tmp_path, code, target):
    writer = FailingWriter(OSError(code, os.strerror(code)))
    argv = ["fig1", "--grid-points", "5"]
    if target == "stdout":
        monkeypatch.setattr(sys, "stdout", writer)
        name = "stdout"
    else:
        path = str(tmp_path / "out.csv")
        monkeypatch.setattr(qclone.cli, "open", lambda *args, **kwargs: writer, raising=False)
        argv += ["--output", path]
        name = repr(path)
    if code == errno.EPIPE:
        assert isinstance(writer.exc, BrokenPipeError)
    rc, _, err = run_cli(capsys, argv)
    assert rc == 1
    assert err == f"qclone: write failure: {os.strerror(code)}: {name}\n"


def run_script(*argv, **kwargs):
    """``python -m qclone`` in a child interpreter, importing this checkout."""
    env = dict(os.environ)
    src = str(pathlib.Path(qclone.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.Popen(
        [sys.executable, "-m", "qclone", *argv], env=env, text=True, **kwargs
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_one_with_one_line():
    proc = run_script(
        "fig1", "--grid-points", "11", "--output", "/dev/full",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and out == ""
    assert err == "qclone: write failure: No space left on device: '/dev/full'\n"


def test_closed_stdout_pipe_exits_one_without_traceback():
    # fig2 at its default 201 points writes 1.2 MB, far past a pipe buffer
    proc = run_script("fig2", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "# command: fig2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "qclone: write failure: Broken pipe: stdout\n"


@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_figure_columns_are_the_kernel_and_sweep_bits(monkeypatch, branch):
    # fig1 takes both columns from one family_eof call; fig2 and fig4 hand
    # their inputs over as (grid, index) pairs, which must decode to the
    # sweep's own columns
    seen = {}

    def spy(command, config, header, columns, missing=None):
        seen[command] = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
        return iter(())

    monkeypatch.setattr(qclone.cli, "_render", spy)
    for argv in (["fig1"], ["fig2", "--alpha", "0.6"], ["fig4", "--branch", branch]):
        assert main(argv + ["--grid-points", "41"]) == 0
    grid = uniform_grid(41)
    alpha, wz, sc = seen["fig1"]
    assert np.array_equal(alpha, grid)
    assert np.array_equal(wz, family_eof(grid, 1.0))
    assert np.array_equal(sc, family_eof(grid, scm_shrink_factor(2)))
    for command, series in (
        ("fig2", acm_region_grid(41, 0.6)),
        ("fig4", acm_alpha_surface(grid, grid, branch)),
    ):
        assert len(seen[command]) == len(series.columns)
        for got, want in zip(seen[command], series.columns):
            assert np.array_equal(got, want), command


def test_float_formatting_is_nine_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, ["entangle", "--machine", "scm", "--alpha", "0.7071"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    eof = rows[0][2]
    mantissa = eof.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 9
