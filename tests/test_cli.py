"""End-to-end checks of the console entry point.

Each command is run in process through main(); stdout is parsed back and
compared against the library API, and the failure paths are checked for
their exit codes and one-line diagnostics.
"""

import math

import numpy as np
import pytest

import qclone.analysis
import qclone.cli
from qclone.analysis import QuadratureConvergenceError, mean_entanglement, uniform_grid
from qclone.cli import GRID_POINTS_MAX, main
from qclone.cloners import acm_clone_closed
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
    wz = list(qclone.analysis.entanglement_curve("wzcm", grid).iter_flat())
    sc = list(qclone.analysis.entanglement_curve("scm", grid).iter_flat())
    for row, (alpha, e_wz), (_, e_sc) in zip(rows, wz, sc):
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


def test_float_formatting_is_nine_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, ["entangle", "--machine", "scm", "--alpha", "0.7071"])
    assert rc == 0
    _, _, rows = parse_csv(out)
    eof = rows[0][2]
    mantissa = eof.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 9
