"""End-to-end checks of the console entry point.

Each command is run in process through main(); stdout is parsed back and
compared against the library API, and the failure paths are checked for
their exit codes and one-line diagnostics.
"""

import decimal
import errno
import io
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qclone.analysis
import qclone.cli
import qclone.states
from qclone.analysis import (
    QuadratureConvergenceError,
    family_eof,
    mean_entanglement,
    mean_entanglement_acm,
)
from qclone.cli import GRID_POINTS_MAX, main
from qclone.cloners import (
    CONSTRAINT_SLACK,
    ShrinkParams,
    acm_boundary_s2,
    acm_region_value,
    clone,
    family_shrink,
)
from qclone.entanglement import concurrence
from qclone.states import psi_minus_family

from closed_forms import acm_clone_closed
from figure_table import figure_table


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--machine", "wzcm"],
        ["--machine", "scm"],
        ["--machine", "acm", "--s1", "0.7", "--s2", "0.48"],
        ["--machine", "acm", "--s1", "0.355", "--s2", "0.355"],
    ],
)
def test_mean_estimate_is_rounded_up_to_two_digits(capsys, flags):
    # |Q_32 - Q_16| is roundoff-sized, so its digits past the second depend
    # on the BLAS kernel; the printed estimate keeps 2 and stays a bound
    rc, out, _ = run_cli(capsys, ["mean", *flags])
    assert rc == 0
    text = parse_csv(out)[2][0][1]
    if flags[1] == "acm":
        params = ShrinkParams(float(flags[3]), float(flags[5]))
        exact = mean_entanglement_acm(params, 1e-7).abs_error_estimate
    else:
        exact = mean_entanglement(flags[1], 1e-7).abs_error_estimate
    printed = decimal.Decimal(text)
    assert len(printed.as_tuple().digits) <= 2
    assert decimal.Decimal(exact) <= printed


def test_round_up_keeps_two_digits_and_never_lowers():
    rng = np.random.default_rng(12)
    values = [0.0, 5.3e-13, 1e-13, 9.95e-13, 1.00266822e-13, 5.25659508e-13]
    values += (10.0 ** rng.uniform(-16, 2, 2000)).tolist()
    for x in values:
        printed = decimal.Decimal("%.9g" % qclone.cli._round_up(x))
        exact = decimal.Decimal(x)
        assert len(printed.as_tuple().digits) <= 2
        assert exact <= printed
        assert printed - exact < decimal.Decimal(1).scaleb(exact.adjusted() - 1), x


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


@pytest.mark.parametrize("tol", ["1e-12", "-1e-09"])
def test_mean_rejects_unreachable_tolerance(capsys, tol):
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm", "--quad-tol", tol])
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
    monkeypatch.setattr(qclone.analysis, "GL_ORDER", 2)
    rc, out, err = run_cli(capsys, ["mean", "--machine", "wzcm", "--quad-tol", "1e-10"])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "numeric failure" in err and "s = 1.0" in err

    # LAPACK's non-convergence as numpy's gufuncs return it: every output
    # NaN, with the floating-point invalid flag raised (here by 0/0)
    def failed_eigh(a):
        return np.zeros(4) / 0.0, np.zeros((4, 4), np.complex128) / 0.0

    def failed_svd(a):
        return np.zeros(4) / 0.0

    monkeypatch.setattr("qclone.qmath._umath_linalg.eigh_lo", failed_eigh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, ["entangle", "--machine", "acm", "--alpha", "0.6", "--s1", "0.8"])
    assert caught == []
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and "numeric failure" in err and "eigensolve failed" in err

    monkeypatch.undo()
    monkeypatch.setattr("qclone.entanglement._umath_linalg.svd", failed_svd)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, ["entangle", "--machine", "wzcm", "--alpha", "0.6"])
    assert caught == []
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
    # the count is checked once, by cloners.family_shrink, and its message
    # is reported as a usage error
    argv = [command, "--machine", "scm", "--alpha", "0.6", "--clones", str(clones)]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"qclone: error: --clones: clone count must be at least 2, got {clones}\n"


@pytest.mark.parametrize("value", ["-0.1", "-1e-09", "1.1", "nan"])
@pytest.mark.parametrize(
    "named, argv",
    [
        ("--s1/--s2: s1", ["mean", "--machine", "acm", "--s1", "{}", "--s2", "0.48"]),
        ("--s1/--s2: s2", ["mean", "--machine", "acm", "--s1", "0.7", "--s2", "{}"]),
        ("--s1: s", ["clone", "--machine", "acm", "--s1", "{}", "--alpha", "0.6"]),
        ("--alpha: alpha", ["clone", "--machine", "scm", "--alpha", "{}"]),
        ("--s1: s", ["entangle", "--machine", "acm", "--s1", "{}", "--alpha", "0.6"]),
        ("--alpha: alpha", ["entangle", "--machine", "wzcm", "--alpha", "{}"]),
    ],
)
def test_unit_interval_flags_use_the_library_checks(capsys, tmp_path, named, argv, value):
    # the library's own range check, reported as a usage error naming the
    # flag; nothing reaches stdout or an existing --output file
    argv = [x.format(value) for x in argv]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err == f"qclone: error: {named} must lie in [0, 1], got {value}\n"
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"old\n")
    assert run_cli(capsys, argv + ["--output", str(existing)]) == (2, "", err)
    assert existing.read_bytes() == b"old\n"


def test_entangle_reports_match_api(capsys):
    rc, out, _ = run_cli(capsys, ["entangle", "--machine", "wzcm", "--alpha", "0.6"])
    assert rc == 0
    _, header, rows = parse_csv(out)
    assert header[:3] == ["alpha", "concurrence", "eof"]
    assert header[-1] == "fidelity"
    report = concurrence(clone(psi_minus_family(0.6), "wzcm"))
    assert abs(float(rows[0][1]) - report.concurrence) < 1e-8
    assert abs(float(rows[0][2]) - report.eof) < 1e-8
    lambdas = [float(x) for x in rows[0][3:7]]
    assert all(abs(a - b) < 1e-8 for a, b in zip(lambdas, report.lambdas))



@pytest.mark.parametrize("machine", ["wzcm", "scm", "acm"])
def test_entangle_builds_its_input_state_once(capsys, monkeypatch, machine):
    calls = []

    def spy(alpha):
        calls.append(alpha)
        return psi_minus_family(alpha)

    monkeypatch.setattr(qclone.states, "psi_minus_family", spy)
    shrink = ["--s1", "0.8"] if machine == "acm" else []
    rc, _, err = run_cli(capsys, ["entangle", "--machine", machine, "--alpha", "0.6"] + shrink)
    assert rc == 0 and err == ""
    assert calls == [0.6]

def test_fig1_matches_curve_api(capsys):
    rc, out, _ = run_cli(capsys, ["fig1", "--grid-points", "11"])
    assert rc == 0
    config, header, rows = parse_csv(out)
    assert header == ["alpha", "eof_wzcm", "eof_scm"]
    assert config["grid_points"] == "11"
    assert len(rows) == 11
    grid = np.linspace(0.0, 1.0, 11)
    wz = family_eof(grid, 1.0)
    sc = family_eof(grid, family_shrink("scm"))
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


@pytest.mark.parametrize("pattern", ["all", "none", "mixed"])
def test_masked_cells_print_outside_region_without_being_formatted(monkeypatch, pattern):
    # 8 rows in blocks of 3; a (values, index) column holds only the
    # in-region values, index -1 prints outside_region, and only the held
    # values reach the formatter
    monkeypatch.setattr(qclone.cli, "BLOCK_ROWS", 3)
    formatted = []
    texts = qclone.cli._texts

    def spy(values):
        formatted.extend(values.tolist())
        return texts(values)

    monkeypatch.setattr(qclone.cli, "_texts", spy)
    rows = 8
    mask = {
        "all": np.ones(rows, dtype=bool),
        "none": np.zeros(rows, dtype=bool),
        "mixed": np.array([False, True, True, True, False, False, True, False]),
    }[pattern]
    values = np.linspace(-1.0, 1.0, rows)[~mask] / 3.0
    index = np.full(rows, -1)
    index[~mask] = np.arange(values.size)
    i = np.arange(rows)
    columns = [i, (values, index), i % 2 == 0]
    chunks = list(qclone.cli._render("t", [], ["i", "v", "b"], columns))
    assert len(chunks) == 1 + 3
    held = iter(values.tolist())
    want = "# command: t\ni,v,b\n" + "".join(
        "%d,%s,%s\n"
        % (j, "outside_region" if m else "%.9g" % next(held), "true" if j % 2 == 0 else "false")
        for j, m in zip(i.tolist(), mask.tolist())
    )
    assert "".join(chunks) == want
    assert formatted == values.tolist()


def test_failures_write_nothing_to_the_output_file(capsys, tmp_path, monkeypatch):
    # a new path is not created, an existing file keeps its bytes
    path = tmp_path / "out.csv"
    existing = tmp_path / "existing.csv"
    old = b"# command: fig1\n# grid_points: 2\nalpha,eof_wzcm,eof_scm\n"
    existing.write_bytes(old)
    for target in (path, existing):
        argv = ["fig2", "--grid-points", "1002", "--output", str(target)]
        rc, _, err = run_cli(capsys, argv)
        assert rc == 2 and "--grid-points" in err
    monkeypatch.setattr(qclone.analysis, "GL_ORDER", 2)
    for target in (path, existing):
        argv = ["fig5", "--quad-tol", "1e-10", "--output", str(target)]
        rc, _, err = run_cli(capsys, argv)
        assert rc == 1 and "numeric failure" in err
    assert not path.exists()
    assert existing.read_bytes() == old


@pytest.mark.parametrize(
    "first, second",
    [
        (["fig2", "--grid-points", "41"], ["fig1", "--grid-points", "11"]),
        (["fig1", "--grid-points", "11"], ["fig2", "--grid-points", "41"]),
    ],
    ids=["longer_then_shorter", "shorter_then_longer"],
)
def test_output_rewrites_an_existing_file_in_place(capsys, tmp_path, first, second):
    path = tmp_path / "out.csv"
    assert run_cli(capsys, [*first, "--output", str(path)])[0] == 0
    inode = path.stat().st_ino
    os.link(path, tmp_path / "hard.csv")
    (tmp_path / "soft.csv").symlink_to(path)
    assert run_cli(capsys, [*second, "--output", str(tmp_path / "soft.csv")])[0] == 0
    rc, want, _ = run_cli(capsys, second)
    assert rc == 0
    assert path.stat().st_ino == inode
    for name in ("out.csv", "hard.csv", "soft.csv"):
        assert (tmp_path / name).read_bytes() == want.encode("ascii")


def test_output_file_mode_follows_the_umask_or_is_kept(capsys, tmp_path):
    path = tmp_path / "out.csv"
    umask = os.umask(0o027)
    try:
        rc, _, _ = run_cli(capsys, ["fig1", "--grid-points", "3", "--output", str(path)])
    finally:
        os.umask(umask)
    assert rc == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    path.chmod(0o600)
    rc, _, _ = run_cli(capsys, ["fig1", "--grid-points", "5", "--output", str(path)])
    assert rc == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_dev_null_exits_zero(capsys):
    rc, out, err = run_cli(capsys, ["fig1", "--grid-points", "11", "--output", "/dev/null"])
    assert (rc, out, err) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_output_to_a_fifo_is_written_and_not_truncated(capsys, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader that is already open lets the writer's open return at once;
    # fig1 at 11 points is far below a pipe buffer, so no write blocks
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        rc, out, err = run_cli(capsys, ["fig1", "--grid-points", "11", "--output", str(fifo)])
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (rc, out, err) == (0, "", "")
    assert data.decode("ascii") == run_cli(capsys, ["fig1", "--grid-points", "11"])[1]


def test_failed_rewrite_leaves_a_prefix_of_the_new_csv(capsys, tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    path.write_bytes(b"Z" * 100_000)
    argv = ["fig1", "--grid-points", "11"]
    rc, full, _ = run_cli(capsys, argv)
    assert rc == 0
    render = qclone.cli._render

    def two_chunks_then_a_full_disk(*args, **kwargs):
        chunks = render(*args, **kwargs)
        yield next(chunks)
        yield next(chunks)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(qclone.cli, "BLOCK_ROWS", 1)
    monkeypatch.setattr(qclone.cli, "_render", two_chunks_then_a_full_disk)
    rc, out, err = run_cli(capsys, [*argv, "--output", str(path)])
    assert rc == 1 and out == ""
    assert err == f"qclone: write failure: {os.strerror(errno.ENOSPC)}: {str(path)!r}\n"
    data = path.read_bytes()
    assert data and b"Z" not in data
    assert full.encode("ascii").startswith(data)


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


@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_grid_points_is_checked_before_alpha(capsys, command):
    rc, out, err = run_cli(capsys, [command, "--grid-points", "1", "--alpha", "2"])
    assert rc == 2 and out == ""
    assert err == "qclone: error: --grid-points must be at least 2\n"


@pytest.mark.parametrize("value", ["1.0000001", "-1e-09"])
@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_figure_alpha_diagnostic_shows_the_value_given(capsys, command, value):
    # by repr: a value just outside [0, 1] must not read as an endpoint;
    # -1e-09 is a value, though argparse before Python 3.13 reads it as a flag
    rc, out, err = run_cli(capsys, [command, "--alpha", value])
    assert rc == 2 and out == ""
    assert err == f"qclone: error: --alpha must lie in [0, 1], got {value}\n"

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
        ["fig2", "--alpha", "-1e-09"],
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
        # an existing file: the stream over the opened descriptor fails,
        # and the rewrite still cuts the file and closes the descriptor
        path = tmp_path / "out.csv"
        path.write_bytes(b"Z" * 1000)
        fds = []

        def failing_stream(fd, *args, **kwargs):
            fds.append(fd)
            return writer

        monkeypatch.setattr(qclone.cli, "open", failing_stream, raising=False)
        argv += ["--output", str(path)]
        name = repr(str(path))
    if code == errno.EPIPE:
        assert isinstance(writer.exc, BrokenPipeError)
    rc, _, err = run_cli(capsys, argv)
    assert rc == 1
    assert err == f"qclone: write failure: {os.strerror(code)}: {name}\n"
    if target == "file":
        (fd,) = fds
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
        # no byte reached the file, so none of the old ones is left
        assert path.read_bytes() == b""


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
def test_figure_columns_are_the_kernel_and_sweep_bits(branch):
    # fig1 takes both columns from one family_eof call; fig2 and fig4 hand
    # their inputs over as (grid, index) pairs, which must decode to the
    # repeat and tile layout, and their values must keep the kernel's bits
    grid = np.linspace(0.0, 1.0, 41)
    outer, inner = np.repeat(grid, 41), np.tile(grid, 41)
    _, (alpha, wz, sc), _ = figure_table(["fig1", "--grid-points", "41"])
    assert np.array_equal(alpha, grid)
    assert np.array_equal(wz, family_eof(grid, 1.0))
    assert np.array_equal(sc, family_eof(grid, family_shrink("scm")))
    argv = ["fig2", "--alpha", "0.6", "--grid-points", "41"]
    _, (s1, s2, value, _), (_, _, outside, _) = figure_table(argv)
    assert np.array_equal(s1, outer) and np.array_equal(s2, inner)
    # index -1 exactly at the pairs outside the region, the kernel's bits elsewhere
    assert np.array_equal(outside, acm_region_value(outer, inner) > CONSTRAINT_SLACK)
    assert 0 < outside.sum() < outside.size
    want = 0.5 * (family_eof(0.6, outer) + family_eof(0.6, inner))
    assert np.array_equal(value[~outside], want[~outside])
    _, (alpha, s1, s2, value, _), _ = figure_table(["fig4", "--branch", branch, "--grid-points", "41"])
    boundary = np.clip(acm_boundary_s2(inner, branch), 0.0, 1.0)
    assert np.array_equal(alpha, outer) and np.array_equal(s1, inner)
    assert np.array_equal(s2, boundary)
    assert np.array_equal(value, 0.5 * (family_eof(outer, inner) + family_eof(outer, boundary)))


@pytest.mark.parametrize("n", [2, 3, 11, 41])
def test_figure_rows_ascend_and_boundary_rows_stay_in_the_region(capsys, n):
    # the rows of each figure are strictly ascending in their inputs, so no
    # input repeats; fig3 and fig5 rows lie on the region's boundary
    inputs = {"fig2": 2, "fig3": 1, "fig4": 2, "fig5": 1}
    for command, width in inputs.items():
        for branch in ([None] if command == "fig2" else ["upper", "lower"]):
            argv = [command, "--grid-points", str(n)] + (["--branch", branch] if branch else [])
            rc, out, _ = run_cli(capsys, argv)
            assert rc == 0
            rows = [tuple(float(x) for x in row[:width]) for row in parse_csv(out)[2]]
            assert len(rows) == (n * n if width == 2 else n), argv
            assert all(a < b for a, b in zip(rows, rows[1:])), argv
            if command in ("fig3", "fig5"):
                _, (s1, s2, *_), _ = figure_table(argv)
                assert np.all(acm_region_value(s1, s2) <= CONSTRAINT_SLACK), argv


def test_float_formatting_is_nine_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, ["entangle", "--machine", "scm", "--alpha", "0.7071"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    eof = rows[0][2]
    mantissa = eof.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 9
