"""End-to-end checks of the console entry point.

Each command is run in process through main(); stdout is parsed back and
compared against the library API, and the failure paths are checked for
their exit codes and one-line diagnostics.
"""

import collections
import decimal
import errno
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qclone._commands
import qclone.analysis
import qclone.cli
import qclone.states
from qclone.analysis import (
    QuadratureConvergenceError,
    family_eof,
    mean_entanglement,
    mean_entanglement_acm,
)
from qclone._constants import GRID_POINTS_MAX
from qclone.cli import main
from qclone.cloners import (
    CONSTRAINT_SLACK,
    ShrinkParams,
    acm_boundary_s2,
    acm_degenerate,
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
        printed = decimal.Decimal("%.9g" % qclone._commands._round_up(x))
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
    assert err == (
        "qclone: error: --s1/--s2: (s1, s2) = (0.9, 0.9) "
        "violates the region constraint by 2.5500000000000007\n"
    )


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
    # each command's parse spec is built once per process; every call must
    # start from the defaults, not from the flags of the call before it
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


#: each command at its smallest table: the figures at 2 grid points, the
#: rest with one machine.
SMALLEST_TABLES = [
    ["fig1", "--grid-points", "2"],
    ["fig2", "--grid-points", "2"],
    ["fig3", "--grid-points", "2"],
    ["fig4", "--grid-points", "2"],
    ["fig5", "--grid-points", "2"],
    ["clone", "--machine", "wzcm", "--alpha", "0.6"],
    ["entangle", "--machine", "wzcm", "--alpha", "0.6"],
    ["mean", "--machine", "wzcm"],
]


@pytest.mark.parametrize("argv", SMALLEST_TABLES, ids=lambda argv: argv[0])
def test_stdout_and_file_output_agree(capsys, tmp_path, argv):
    # the bytes --output writes are stdout's text, encoded as ASCII
    path = tmp_path / "out.csv"
    rc, out, _ = run_cli(capsys, [*argv, "--output", str(path)])
    assert rc == 0 and out == ""
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert path.read_bytes() == out.encode("ascii")


def test_block_boundaries_leave_the_bytes_unchanged(capsys, monkeypatch):
    # block sizes that split the table unevenly, evenly and not at all
    argvs = (
        ["fig2", "--grid-points", "11"],
        ["fig4", "--grid-points", "9"],
        ["fig5", "--grid-points", "5"],
    )
    whole = [run_cli(capsys, argv)[1] for argv in argvs]
    for rows in (1, 7, 11, 100000):
        monkeypatch.setattr(qclone._commands, "BLOCK_ROWS", rows)
        assert [run_cli(capsys, argv)[1] for argv in argvs] == whole


@pytest.mark.parametrize("pattern", ["all", "none", "mixed"])
def test_masked_cells_print_outside_region_without_being_formatted(monkeypatch, pattern):
    # 8 rows in blocks of 3; a (values, index) column holds only the
    # in-region values, index -1 prints outside_region, and only the held
    # values reach the formatter
    monkeypatch.setattr(qclone._commands, "BLOCK_ROWS", 3)
    formatted = []
    texts = qclone._commands._texts

    def spy(values):
        formatted.extend(values.tolist())
        return texts(values)

    monkeypatch.setattr(qclone._commands, "_texts", spy)
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
    chunks = list(qclone._commands._render("t", [], ["i", "v", "b"], columns))
    # the comment and header lines ride with the first of the 3 blocks
    assert len(chunks) == 3
    held = iter(values.tolist())
    want = "# command: t\ni,v,b\n" + "".join(
        "%d,%s,%s\n"
        % (j, "outside_region" if m else "%.9g" % next(held), "true" if j % 2 == 0 else "false")
        for j, m in zip(i.tolist(), mask.tolist())
    )
    assert b"".join(chunks) == want.encode("ascii")
    assert formatted == values.tolist()


def str_render(command, config, header, columns, block_rows):
    """The CSV renderer as it was before it formatted bytes: the same
    coded columns and one % per block, into str.  Kept as the reference
    that every chunk of qclone._commands._render must equal, encoded as ASCII."""
    specs = {"f": "%.9g", "i": "%d"}
    words = np.array(["false", "true"], dtype=object)

    def texts(values):
        return ((specs["f"] + "\n") * len(values) % tuple(values.tolist())).split("\n")[:-1]

    lines = [f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}: {value!r}" if isinstance(value, float) else f"# {key}: {value}")
    lines.append(",".join(header))
    head = "\n".join(lines) + "\n"
    tables = {}
    for c in columns:
        if isinstance(c, tuple) and id(c[0]) not in tables:
            tables[id(c[0])] = np.array(texts(c[0]) + ["outside_region"], dtype=object)
    coded = [
        (tables[id(c[0])], c[1])
        if isinstance(c, tuple)
        else (words, c.astype(int)) if c.dtype.kind == "b" else None
        for c in columns
    ]
    row = ",".join(
        "%s" if code is not None else specs[c.dtype.kind] for c, code in zip(columns, coded)
    ) + "\n"
    k = len(columns)
    n = len(coded[0][1]) if coded[0] is not None else len(columns[0])
    for lo in range(0, n, block_rows):
        m = min(block_rows, n - lo)
        cells = [None] * (m * k)
        for j, (col, code) in enumerate(zip(columns, coded)):
            if code is None:
                cells[j::k] = col[lo : lo + m].tolist()
            else:
                table, index = code
                cells[j::k] = table[index[lo : lo + m]].tolist()
        yield head + row * m % tuple(cells)
        head = ""


#: floats whose 9-digit texts take every form %.9g has: signed zeros,
#: exponents below 1e-4 and at 1e9 or more, subnormals, the largest and
#: smallest doubles, values next to a 9-digit tie, and NaN and infinities.
SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 0.5, 0.1 + 0.2, 1 / 3, 2 / 3,
    1e-4, 9.99999999e-5, 9.999999995e-5, 1.5e-5, -3e-7, 1e-300,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
    1.7976931348623157e308, 999999999.0, 999999999.5, 1e9, -123456789012.0,
    0.1234567895, 0.1234567885, 1.0000000005, 0.9999999995,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("seed", range(6))
def test_bytes_render_equals_the_str_route(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 60))
    special = np.array(SPECIAL_FLOATS)
    # each float column mixes the special values with seeded draws that
    # span every binary exponent, subnormals included
    drawn = rng.random(rows) * 2.0 ** rng.integers(-1074, 1024, rows) * rng.choice((-1, 1), rows)

    def floats():
        return np.where(rng.random(rows) < 0.5, rng.choice(special, rows), drawn[rng.permutation(rows)])

    shared = np.concatenate((special, drawn))
    held = floats()
    index = np.arange(rows)
    index[rng.random(rows) < 0.4] = -1
    columns = [
        floats(),
        rng.integers(-(10**15), 10**15, rows),
        rng.integers(0, 2, rows).astype(bool),
        (held, index),
        # two columns over one values array, as the 2-D sweeps give
        (shared, rng.integers(-1, shared.size, rows)),
        (shared, rng.integers(0, shared.size, rows)),
        # one constant value on every row, as fig5's reference means
        (shared[:1], np.zeros(rows, dtype=int)),
        np.arange(rows),
    ]
    header = [f"c{j}" for j in range(len(columns))]
    config = [("alpha", 0.1 + 0.2), ("branch", "lower"), ("grid_points", rows), ("tol", -0.0)]
    for block_rows in (1, 3, rows - 1, rows, 4096):
        monkeypatch.setattr(qclone._commands, "BLOCK_ROWS", block_rows)
        got = list(qclone._commands._render("t", config, header, columns))
        want = [chunk.encode("ascii") for chunk in str_render("t", config, header, columns, block_rows)]
        assert got == want


def test_each_figure_value_is_formatted_once(capsys, monkeypatch):
    # the value lists that reach the formatter, one per call
    calls = []
    texts = qclone._commands._texts

    def spy(values):
        calls.append(values.tolist())
        return texts(values)

    monkeypatch.setattr(qclone._commands, "_texts", spy)
    grid = np.linspace(0.0, 1.0, 11)
    # fig2: the grid once for both of its columns, then the in-region averages
    rc, out, _ = run_cli(capsys, ["fig2", "--grid-points", "11"])
    assert rc == 0
    outer, inner = np.divmod(np.arange(121), 11)
    inside = acm_region_value(grid[outer], grid[inner]) <= CONSTRAINT_SLACK
    eof = family_eof(qclone.cli._SINGLET_ALPHA, grid)
    assert calls == [grid.tolist(), (0.5 * (eof[outer] + eof[inner]))[inside].tolist()]
    assert sum(row[2] != "outside_region" for row in parse_csv(out)[2]) == inside.sum()
    # fig4: the grid once for its alpha and s1 columns, then the boundary s2
    calls.clear()
    rc, _, _ = run_cli(capsys, ["fig4", "--grid-points", "11"])
    assert rc == 0
    s2 = np.clip(acm_boundary_s2(grid, "upper"), 0.0, 1.0)
    assert calls == [grid.tolist(), s2.tolist()]
    # fig5: each reference mean once, printed on every row
    calls.clear()
    rc, out, _ = run_cli(capsys, ["fig5", "--grid-points", "5"])
    assert rc == 0
    wz, sc = mean_entanglement("wzcm").value, mean_entanglement("scm").value
    assert calls == [[wz], [sc]]
    rows = parse_csv(out)[2]
    assert [(row[3], row[4]) for row in rows] == [("%.9g" % wz, "%.9g" % sc)] * 5


@pytest.mark.parametrize("n", [2, 3, 14, 41, 201])
def test_fig2_broadcast_flags_match_the_gathered_sweep(n):
    # the (n, n) broadcast of (s1, s2), raveled, against the n^2-long
    # gathered copies in the repeat and tile order, bit for bit
    args = qclone.cli._parse(["fig2", "--alpha", "0.8", "--grid-points", str(n)])
    _, columns = qclone._commands._cmd_fig2(args)
    grid = np.linspace(0.0, 1.0, n)
    outer, inner = np.divmod(np.arange(n * n), n)
    s1, s2 = grid[outer], grid[inner]
    inside = acm_region_value(s1, s2) <= CONSTRAINT_SLACK
    eof = family_eof(0.8, grid)
    values, index = columns[2]
    assert (index >= 0).tolist() == inside.tolist()
    assert index[inside].tolist() == list(range(inside.sum()))
    want = 0.5 * (eof[outer] + eof[inner])
    assert values.view(np.int64).tolist() == want[inside].view(np.int64).tolist()
    assert columns[3].tolist() == acm_degenerate(s1, s2).tolist()
    assert [c[1].tolist() for c in columns[:2]] == [outer.tolist(), inner.tolist()]


def test_grid_is_linspace_bit_for_bit():
    for n in range(2, GRID_POINTS_MAX + 1):
        got = qclone._commands._grid(n)
        assert got.view(np.int64).tolist() == np.linspace(0.0, 1.0, n).view(np.int64).tolist(), n


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
    render = qclone._commands._render

    def two_chunks_then_a_full_disk(*args, **kwargs):
        chunks = render(*args, **kwargs)
        yield next(chunks)
        yield next(chunks)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(qclone._commands, "BLOCK_ROWS", 1)
    monkeypatch.setattr(qclone._commands, "_render", two_chunks_then_a_full_disk)
    rc, out, err = run_cli(capsys, [*argv, "--output", str(path)])
    assert rc == 1 and out == ""
    assert err == f"qclone: write failure: {os.strerror(errno.ENOSPC)}: {str(path)!r}\n"
    data = path.read_bytes()
    assert data and b"Z" not in data
    assert full.encode("ascii").startswith(data)


def route_writes_to_opened(monkeypatch, write):
    """Patch os.open to record each descriptor it returns, and os.write to
    call ``write(real_write, fd, data)`` for those; returns their list."""
    opened = []
    real_open, real_write = os.open, os.write

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def routed(fd, data):
        return write(real_write, fd, data) if fd in opened else real_write(fd, data)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "write", routed)
    return opened


@pytest.mark.parametrize(
    "argv, block_rows, writes",
    [
        (["mean", "--machine", "scm"], None, 1),
        (["fig1", "--grid-points", "11"], None, 1),
        # 1681 rows in blocks of 100
        (["fig2", "--grid-points", "41"], 100, 17),
    ],
    ids=["mean", "fig1", "fig2"],
)
def test_file_output_takes_one_write_per_block(
    capsys, monkeypatch, tmp_path, argv, block_rows, writes
):
    # the comment and header lines ride with the first block; a short
    # write is followed by writes of the rest, and the file is cut at the
    # bytes os.write reported
    if block_rows is not None:
        monkeypatch.setattr(qclone._commands, "BLOCK_ROWS", block_rows)
    rc, want, _ = run_cli(capsys, argv)
    assert rc == 0
    want = want.encode("ascii")
    sizes = []
    limit = None

    def spy(real_write, fd, data):
        sizes.append(len(data))
        return real_write(fd, data if limit is None else data[:limit])

    opened = route_writes_to_opened(monkeypatch, spy)
    path = tmp_path / "out.csv"
    assert run_cli(capsys, [*argv, "--output", str(path)]) == (0, "", "")
    assert len(sizes) == writes and sum(sizes) == len(want)
    assert path.read_bytes() == want
    # at most 7 bytes a call, over a longer file
    limit = 7
    path.write_bytes(b"Z" * (len(want) + 100))
    opened.clear()
    sizes.clear()
    assert run_cli(capsys, [*argv, "--output", str(path)]) == (0, "", "")
    assert sum(min(size, limit) for size in sizes) == len(want)
    assert path.read_bytes() == want


@pytest.mark.parametrize("argv", SMALLEST_TABLES, ids=lambda argv: argv[0])
def test_the_first_chunk_of_every_command_holds_a_data_row(capsys, monkeypatch, argv):
    # _render has no form for a table of no rows: every command's smallest
    # table puts its comment lines, its header and a data row in one chunk
    assert sorted(table[0] for table in SMALLEST_TABLES) == sorted(qclone.cli._COMMANDS)
    render, chunks = qclone._commands._render, []

    def spy(*args):
        for chunk in render(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(qclone._commands, "_render", spy)
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "") and b"".join(chunks) == out.encode("ascii")
    lines = chunks[0].decode("ascii").splitlines()
    comments = [line for line in out.splitlines() if line.startswith("#")]
    assert lines[0] == f"# command: {argv[0]}" and lines[: len(comments)] == comments
    header, *rows = lines[len(comments) :]
    assert rows and all(row.count(",") == header.count(",") for row in rows)


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


#: every usage error a command line that parses can meet, each input rule
#: broken alone on each command that applies it and pairs of broken rules
#: that fix the order: its argv, exit code and stderr line, recorded while
#: the commands still checked their own inputs.
USAGE_ERRORS = json.loads(pathlib.Path(__file__).with_name("usage_errors.json").read_text())


@pytest.mark.parametrize(
    "argv, status, line", USAGE_ERRORS["cases"], ids=[" ".join(c[0]) for c in USAGE_ERRORS["cases"]]
)
def test_usage_error_gives_the_recorded_line(capsys, argv, status, line):
    assert run_cli(capsys, argv) == (status, "", line)


@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_grid_points_is_checked_before_alpha(capsys, command):
    rc, out, err = run_cli(capsys, [command, "--grid-points", "1", "--alpha", "2"])
    assert rc == 2 and out == ""
    assert err == "qclone: error: --grid-points must be at least 2\n"


@pytest.mark.parametrize("value", ["1.0000001", "-1e-09"])
@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_figure_alpha_diagnostic_shows_the_value_given(capsys, command, value):
    # by repr: a value just outside [0, 1] must not read as an endpoint;
    # -1e-09 is a value: a token starting with '-' that reads as a number
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
        ["fig2", "--alpha", "-.5"],
        ["fig2", "--alpha", "-1x"],
        ["fig2", "--alpha", "nan"],
        ["fig1", "--grid-points", "1_1"],
        ["fig1", "--grid-points", ""],
        ["fig1", "--output", "-"],
        ["fig1", "--output", "--grid-points"],
        ["fig1", "--grid-points"],
    ]
    return argvs


def parse_outcome(capsys, parse, argv):
    """What a parse gives: its namespace by repr (so a NaN value compares
    equal and the order of the names counts) or its exit code, then stdout
    and stderr."""
    try:
        result = repr(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


#: every flag of every command.
ALL_FLAGS = sorted(
    {"--output", *(f for flags, required in FLAG_SAMPLES.values() for f in [*flags, *required[::2]])}
)
#: the values the oracle draws: each sample, each flag name, bad choices,
#: and values a parse may read as a flag, a negative number or an invalid one.
ORACLE_VALUES = sorted(
    {v for flags, required in FLAG_SAMPLES.values() for v in [*flags.values(), *required[1::2]]}
    | set(ALL_FLAGS)
    | {"middle", "qcm"}
    | {"-0.5", "-.5", "-1e-09", "-1x", "nan", "inf", "1_1", "", "a b", "-", "--", "-h"}
)


@st.composite
def drawn_argvs(draw):
    """A command (or not), maybe its required flags, then up to four
    distinct flags with a value each, and at most one change: a pair
    joined as ``--flag=value``, a pair repeated or a stray token put in.
    Most flags are the command's own, with its sample value or a drawn
    one; other flags are abbreviated, another command's, unknown or -h."""
    command = draw(st.sampled_from([*FLAG_SAMPLES, *FLAG_SAMPLES, "fig9", "-h", "--output"]))
    flags, required = FLAG_SAMPLES.get(command, ({}, []))
    samples = {**flags, **dict(zip(required[::2], required[1::2])), "--output": "o"}
    value = st.sampled_from(ORACLE_VALUES)
    other = st.sampled_from(
        [*ALL_FLAGS, *(f[:n] for f in ALL_FLAGS for n in (3, 4)), "--bogus", "-h", "--help"]
    )
    own = st.sampled_from(sorted(samples)).flatmap(
        lambda f: st.tuples(st.just(f), st.one_of(st.just(samples[f]), st.just(samples[f]), value))
    )
    pair = st.one_of(own, own, own, st.tuples(other, value))
    pairs = draw(st.lists(pair, max_size=4, unique_by=lambda p: p[0]))
    tokens = [*(required if draw(st.booleans()) else []), *(t for p in pairs for t in p)]
    change = draw(st.sampled_from(["", "", "join", "repeat", "stray"]))
    if change == "join" and pairs:
        tokens[-2:] = ["=".join(pairs[-1])]
    elif change == "repeat" and pairs:
        tokens += pairs[0]
    elif change == "stray":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.one_of(other, value)))
    return [command, *tokens]


def plain_argvs():
    """Command lines of ``--flag value`` pairs: each command with all its
    flags and --output, and floats by repr, as the benchmark passes them."""
    argvs = []
    for command, (flags, required) in FLAG_SAMPLES.items():
        argvs.append([command, *required, *(t for p in flags.items() for t in p), "--output", "o"])
    argvs += [
        ["fig2", "--alpha", repr(0.1 + 0.2)],
        ["fig2", "--alpha", repr(-1e-09)],
        ["mean", "--machine", "acm", "--s1", repr(0.12), "--s2", repr(0.88), "--quad-tol", repr(1e-7)],
    ]
    return argvs


#: the mark of a flag that a command requires, in place of its default.
REQUIRED = "required"
CLONE_FLAGS = [
    ("--machine", ("wzcm", "scm", "acm"), REQUIRED),
    ("--alpha", float, REQUIRED),
    ("--clones", int, None),
    ("--s1", float, None),
]
#: each command's flags after --output, in -h order: option, type or
#: choices, and default, written out here rather than read from qclone.cli.
DECLARED = {
    "fig1": [("--grid-points", int, 201)],
    "fig2": [("--alpha", float, 1 / math.sqrt(2)), ("--grid-points", int, 201)],
    "fig3": [
        ("--alpha", float, 1 / math.sqrt(2)),
        ("--branch", ("upper", "lower"), "upper"),
        ("--grid-points", int, 201),
    ],
    "fig4": [("--branch", ("upper", "lower"), "upper"), ("--grid-points", int, 201)],
    "fig5": [
        ("--branch", ("upper", "lower"), "upper"),
        ("--grid-points", int, 201),
        ("--quad-tol", float, 1e-7),
    ],
    "clone": CLONE_FLAGS,
    "entangle": CLONE_FLAGS,
    "mean": [
        ("--machine", ("wzcm", "scm", "acm"), REQUIRED),
        ("--quad-tol", float, 1e-7),
        ("--s1", float, None),
        ("--s2", float, None),
    ],
}


def dest(option):
    return option[2:].replace("-", "_")


@pytest.mark.parametrize("command", list(DECLARED))
def test_each_command_declares_the_pinned_flags(capsys, command):
    required = FLAG_SAMPLES[command][1]
    given = dict(zip(required[::2], required[1::2]))
    assert sorted(given) == sorted(o for o, _, d in DECLARED[command] if d is REQUIRED)
    # the namespace _parse builds: names, order, defaults, types; main runs
    # the command's function in qclone._commands
    assert qclone.cli._COMMANDS[command][1] == f"_cmd_{command}"
    assert callable(getattr(qclone._commands, f"_cmd_{command}"))
    want = [("command", command), ("output", None)]
    for option, kind, default in DECLARED[command]:
        if default is REQUIRED:
            default = given[option] if isinstance(kind, tuple) else kind(given[option])
        want.append((dest(option), default))
    got = list(vars(qclone.cli._parse([command, *required])).items())
    assert got == want
    assert [type(value) for _, value in got] == [type(value) for _, value in want]
    # a value off a flag's type or choices is rejected; 1.5 passes only a float
    for option, kind, _ in DECLARED[command]:
        argv = [command, *required, option, "1.5"]
        if kind is float:
            assert getattr(qclone.cli._parse(argv), dest(option)) == 1.5
        else:
            assert parse_outcome(capsys, qclone.cli._parse, argv)[0] == ("exit", 2)
    # leaving out any required flag exits 2 naming it
    for i in range(0, len(required), 2):
        argv = [command, *required[:i], *required[i + 2 :]]
        result, out, err = parse_outcome(capsys, main, argv)
        assert result == ("exit", 2) and out == ""
        assert f"the following arguments are required: {required[i]}" in err
    # -h lists the options in the declared order, choice flags with their choices
    result, out, _ = parse_outcome(capsys, main, [command, "-h"])
    assert result == ("exit", 0)
    options = re.findall(r"^  (-[-\w]+)", out, re.M)
    assert options == ["-h", "--output", *(o for o, _, _ in DECLARED[command])]
    for option, kind, _ in DECLARED[command]:
        if isinstance(kind, tuple):
            assert f"  {option} {{{','.join(kind)}}}" in out


#: the command lines tests/golden.json pins, each its argv joined by spaces.
GOLDEN_ARGVS = [
    case.split(" ")
    for case in json.loads(pathlib.Path(__file__).with_name("golden.json").read_text())["cases"]
]


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_each_golden_argv_parses_to_the_declared_namespace(argv):
    # a golden case is a plain line of distinct, whole --flag value pairs,
    # so its namespace follows from DECLARED alone: the defaults in the
    # declared order, each given flag read through its type or choices
    command, tokens = argv[0], argv[1:]
    given = dict(zip(tokens[::2], tokens[1::2]))
    assert 2 * len(given) == len(tokens)
    assert set(given) <= {option for option, _, _ in DECLARED[command]}
    want = [("command", command), ("output", None)]
    for option, kind, default in DECLARED[command]:
        if option not in given:
            assert default is not REQUIRED, option
            value = default
        elif isinstance(kind, tuple):
            assert given[option] in kind
            value = given[option]
        else:
            value = kind(given[option])
        want.append((dest(option), value))
    got = list(vars(qclone.cli._parse(argv)).items())
    assert got == want
    assert [type(value) for _, value in got] == [type(value) for _, value in want]


#: the outcome of every argv of oracle_argvs() and plain_argvs() and of the
#: 84 golden cases ("fixed"), and of 1200 argvs drawn from drawn_argvs()
#: ("drawn"), recorded with the argparse parser that _parse replaced: the
#: namespace items, values by repr and without table, or the exit code.  A
#: golden case added later needs no entry: its namespace follows from
#: DECLARED (test_each_golden_argv_parses_to_the_declared_namespace).
RECORDED = json.loads(pathlib.Path(__file__).with_name("parse_outcomes.json").read_text())
#: how often each declared change from argparse shows in each group.
DECLARED_CHANGES = {
    "fixed": {},
    "drawn": {"--FLAG=-- exits 2": 1, "help after a stray token before the command exits 2": 2},
}


def outcome(capsys, argv):
    """What _parse gives: its namespace items, values by repr, or its exit
    code; then stdout and stderr."""
    try:
        args = qclone.cli._parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    else:
        result = [[key, repr(value)] for key, value in vars(args).items()]
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def declared_change(argv, want, got):
    """The declared change that turns argparse's outcome ``want`` of
    ``argv`` into ``got``, or None."""
    # argparse read --FLAG=-- as [], unchecked by the flag's type or choices
    read_as_empty = isinstance(want, list) and any(value == "[]" for _, value in want)
    if got == 2 and read_as_empty and any(token.endswith("=--") for token in argv):
        return "--FLAG=-- exits 2"
    # argparse set a stray token before the command aside, then read -h
    if (want, got) == (0, 2) and argv[0] not in (*FLAG_SAMPLES, "-h", "--help"):
        return "help after a stray token before the command exits 2"
    return None


@pytest.mark.parametrize(
    "argv, want",
    [
        pytest.param(argv, want, id=f"{group}:{' '.join(argv)}")
        for group in DECLARED_CHANGES
        for argv, want in RECORDED[group]
    ],
)
def test_parse_gives_the_recorded_outcome(capsys, argv, want):
    got, out, err = outcome(capsys, argv)
    assert got == want or declared_change(argv, want, got) is not None, (got, err)
    if got == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("qclone: error: ")
    elif got == 0:
        assert out.startswith("usage: qclone ") and err == ""
    else:
        assert out == err == ""


def test_the_record_holds_every_fixed_argv_and_the_declared_changes(capsys):
    fixed = [argv for argv, _ in RECORDED["fixed"]]
    assert all(argv in fixed for argv in oracle_argvs() + plain_argvs())
    drawn = {json.dumps(argv) for argv, _ in RECORDED["drawn"]}
    assert len(drawn) == len(RECORDED["drawn"]) >= 1000
    # each declared change shows exactly as often as declared
    for group, declared in DECLARED_CHANGES.items():
        changes = collections.Counter()
        for argv, want in RECORDED[group]:
            got = outcome(capsys, argv)[0]
            if got != want:
                changes[declared_change(argv, want, got)] += 1
        assert changes == declared, group


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=drawn_argvs())
def test_a_parse_ends_in_an_exit_or_a_namespace_that_reads_back(capsys, argv):
    try:
        args = qclone.cli._parse(list(argv))
    except SystemExit as exc:
        assert exc.code in (0, 2)
        return
    finally:
        capsys.readouterr()
    # the namespace as a plain line: each flag that is set, numbers by repr;
    # a value that would read as a flag after a space goes after '='
    line = [args.command]
    for key, value in vars(args).items():
        if key != "command" and value is not None:
            flag, text = "--" + key.replace("_", "-"), value if isinstance(value, str) else repr(value)
            flaglike = text.startswith("-") and text != "-" and not re.match(r"-\.?\d", text)
            line += [f"{flag}={text}"] if flaglike else [flag, text]
    assert repr(qclone.cli._parse(line)) == repr(args)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["fig9"], "argument command: invalid choice: 'fig9' "
                   "(choose from fig1, fig2, fig3, fig4, fig5, clone, entangle, mean)"),
        (["--output", "o", "fig1"], "argument command: invalid choice: '--output' "
                                    "(choose from fig1, fig2, fig3, fig4, fig5, clone, entangle, mean)"),
        (["clone"], "the following arguments are required: --machine, --alpha"),
        (["clone", "--alpha", "0.6", "--bogus"], "the following arguments are required: --machine"),
        (["fig1", "--bogus", "x", "--grid-points", "5", "y"], "unrecognized arguments: --bogus x y"),
        (["fig1", "--", "x"], "unrecognized arguments: -- x"),
        (["fig1", "--grid-points"], "argument --grid-points: expected one argument"),
        (["fig1", "--output", "-h"], "argument --output: expected one argument"),
        (["fig1", "--output", "--"], "argument --output: expected one argument"),
        (["fig1", "--grid-points=--"], "argument --grid-points: expected one argument"),
        (["fig1", "--grid-points", "x", "-h"], "argument --grid-points: invalid int value: 'x'"),
        (["fig2", "--alpha", "-1x"], "argument --alpha: invalid float value: '-1x'"),
        (["fig3", "--branch", "middle"], "argument --branch: invalid choice: 'middle' "
                                         "(choose from upper, lower)"),
        (["mean", "--machine", "acm", "--s", "0.5"], "ambiguous option: --s could match --s1, --s2"),
        (["fig1", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_usage_errors_are_one_line_in_argparse_words(capsys, argv, message):
    result, out, err = parse_outcome(capsys, main, argv)
    assert result == ("exit", 2) and out == ""
    assert err == f"qclone: error: {message}\n"


def test_help_lists_the_commands_with_their_help_lines(capsys):
    for argv in (["-h"], ["--help"], ["--he"]):
        result, out, err = parse_outcome(capsys, main, argv)
        assert result == ("exit", 0) and err == ""
        assert re.findall(r"^  (\w+) ", out, re.M) == list(FLAG_SAMPLES)
        for name, (help_text, _, _) in qclone.cli._COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(help_text)}$", out, re.M), name
    # -h is read in its turn: after a token no flag takes, not after a bad value
    assert parse_outcome(capsys, main, ["fig1", "--bogus", "-h"])[0] == ("exit", 0)
    assert parse_outcome(capsys, main, ["fig1", "--grid-points", "x", "-h"])[0] == ("exit", 2)


@pytest.mark.parametrize("command", list(FLAG_SAMPLES))
def test_every_flag_given_two_dashes_after_equals_exits_two(capsys, command):
    # argparse read --FLAG=-- as [], which no type or choice check saw
    required = FLAG_SAMPLES[command][1]
    for flag in ["-h", "--help", "--output", *(o for o, _, _ in DECLARED[command])]:
        result, out, err = parse_outcome(capsys, main, [command, *required, f"{flag}=--"])
        assert result == ("exit", 2) and out == "", flag
        assert err.count("\n") == 1 and err.startswith("qclone: error: "), flag
        assert "Traceback" not in err


@pytest.mark.parametrize("command", list(FLAG_SAMPLES))
def test_echo_follows_the_declared_order_whatever_the_flag_order(capsys, command):
    flags, required = FLAG_SAMPLES[command]
    pairs = [*zip(required[::2], required[1::2]), *flags.items()]
    machine = dict(pairs).get("--machine")
    # every sample flag that applies: --clones is scm's and --s1 acm's
    pairs = [(f, v) for f, v in pairs if {"--clones": "scm", "--s1": "acm"}.get(f, machine) == machine]
    forward = [command, *(t for pair in pairs for t in pair)]
    backward = [command, *(t for pair in pairs[::-1] for t in pair)]
    rc, out, err = run_cli(capsys, forward)
    assert rc == 0 and err == ""
    assert run_cli(capsys, backward) == (0, out, "")
    keys = [line[2:].partition(":")[0] for line in out.splitlines() if line.startswith("# ")]
    given = dict(pairs)
    echoed = [dest(o) for o, _, d in DECLARED[command] if o in given or d is not None]
    assert keys == ["command", *echoed]


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
        # an existing file: os.write fails on the descriptor qclone
        # opened, and the rewrite still cuts the file and closes it
        path = tmp_path / "out.csv"
        path.write_bytes(b"Z" * 1000)

        def failing_write(real_write, fd, data):
            raise writer.exc

        fds = route_writes_to_opened(monkeypatch, failing_write)
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


def run_script(*argv, prelude=None, **kwargs):
    """``python -m qclone`` in a child interpreter, importing this checkout;
    with ``prelude``, the child runs that code and then the console script."""
    env = dict(os.environ)
    src = str(pathlib.Path(qclone.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    start = ["-m", "qclone"] if prelude is None else ["-c", f"{prelude}\nimport qclone.cli\nqclone.cli.run()"]
    return subprocess.Popen([sys.executable, *start, *argv], env=env, text=True, **kwargs)


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


def test_closed_stdout_exits_one_with_one_line():
    # descriptor 1 closed before the interpreter starts leaves sys.stdout None
    proc = run_script(
        "fig1", "--grid-points", "3",
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
    )
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and "Traceback" not in err
    assert err == "qclone: write failure: Bad file descriptor: stdout\n"


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("argv", [["-h"], ["fig1", "-h"]], ids=["commands", "flags"])
@pytest.mark.parametrize("target", ["full_device", "closed_pipe", "closed_stdout"])
def test_help_on_a_failing_stdout_is_a_write_failure(argv, target):
    # the listing fails the way the CSV does: one line naming stdout, exit
    # 1, and no traceback or "Exception ignored" from the flush at exit
    if target == "full_device":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        stdout, reason = os.open("/dev/full", os.O_WRONLY), "No space left on device"
    elif target == "closed_pipe":
        stdout, reason = _closed_pipe(), "Broken pipe"
    else:
        stdout, reason = None, "Bad file descriptor"
    kwargs = {"stdout": stdout} if stdout is not None else {"preexec_fn": lambda: os.close(1)}
    try:
        proc = run_script(*argv, stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, **kwargs)
    finally:
        if stdout is not None:
            os.close(stdout)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == f"qclone: write failure: {reason}: stdout\n"


_FAILED_SVD ="import numpy as np\nnp.linalg._umath_linalg.svd = lambda a: np.full(4, np.nan)"


@pytest.mark.parametrize(
    "argv, prelude, status, line",
    [
        (["fig1", "--bogus"], None, 2, "qclone: error: unrecognized arguments: --bogus\n"),
        (["fig1", "--grid-points", "1"], None, 2, "qclone: error: --grid-points must be at least 2\n"),
        (
            ["entangle", "--machine", "wzcm", "--alpha", "0.6"], _FAILED_SVD, 1,
            "qclone: numeric failure: SVD did not converge\n",
        ),
        pytest.param(
            ["fig1", "--grid-points", "11", "--output", "/dev/full"], None, 1,
            "qclone: write failure: No space left on device: '/dev/full'\n",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full"),
        ),
    ],
    ids=["usage_error", "bad_value", "numeric_failure", "write_failure"],
)
def test_closed_stderr_keeps_the_exit_status(argv, prelude, status, line):
    # with stderr open each case exits with its status and one line.  With
    # descriptor 2 closed before the interpreter starts, sys.stderr is None
    # (print(file=None) would write the line to stdout); with stderr on
    # /dev/full, the print raises ENOSPC.  Either way the line is lost and
    # the status and the empty stdout stay
    proc = run_script(
        *argv, prelude=prelude, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.communicate(timeout=60) == ("", line) and proc.returncode == status
    with open("/dev/full" if os.path.exists("/dev/full") else os.devnull, "w") as full:
        for target in ({"preexec_fn": lambda: os.close(2)}, {"stderr": full}):
            proc = run_script(*argv, prelude=prelude, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, **target)
            assert proc.communicate(timeout=60) == ("", None) and proc.returncode == status


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


def test_every_accepted_sweep_stays_in_the_region():
    # fig3, fig4 and fig5 check no pair of their sweep: over every accepted
    # --grid-points on both branches the largest region value is a few eps
    worst = -math.inf
    for branch in ("upper", "lower"):
        for n in range(2, GRID_POINTS_MAX + 1):
            s1, s2, _ = qclone._commands._sweep(SimpleNamespace(grid_points=n, branch=branch))
            worst = max(worst, float(acm_region_value(s1, s2).max()))
    assert worst <= 1e-15 < CONSTRAINT_SLACK


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
