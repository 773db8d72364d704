"""Checks every value qclone returned against reference.py.

Each operation of each round gets one outcome:

* ``ok``: every check passed;
* ``fault``: an operation marked ``fixed_fault`` whose only failed check is
  the quadrature honesty check (true error within the requested
  tolerance), the adaptive-Simpson fault the alpha_means workload keeps;
* ``error``: anything else, which makes the run's ``correct`` false.

CSV numbers carry 9 significant digits, so a rendered value may differ
from the exact one by half a unit in its 9th digit on top of the
computation's own tolerance.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
import workloads

#: agreement of grid coordinates and boundary s2 with their closed forms.
GRID_ATOL = 1e-12
#: agreement of per-point figure values with the closed form.
FIGURE_ATOL = 1e-10
#: agreement of generic-route concurrence and lambdas with numpy's eigh.
GENERIC_ATOL = 1e-7
#: agreement of matrices (clone output, partial traces) with closed forms.
MATRIX_ATOL = 1e-12


class Fault(Exception):
    """The quadrature's true error exceeds the requested tolerance."""


class Mismatch(Exception):
    """Any other check failed."""


def _half_digit(x) -> np.ndarray:
    """Half a unit in the 9th significant digit of each rendered value."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(np.where(x > 0, x, 1.0)))
    return np.where(x > 0, 0.5 * 10.0 ** (e - 8), 0.0)


def _close(name: str, got, want, atol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= atol + _half_digit(got))
    if bad.any():
        k = int(np.argmax(bad))
        raise Mismatch(
            f"{name}: {int(bad.sum())} values off, first {got.flat[k]!r} != {want.flat[k]!r}"
        )


def _within_tol(name: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    err = np.abs(got - np.asarray(want, dtype=float))
    bad = ~(err <= tol + _half_digit(got))
    if bad.any():
        raise Fault(f"{name}: {int(bad.sum())} values miss tol {tol:g}, worst {err.max() / tol:.1f}x")


def parse_csv(text: str, header: list[str]) -> list[list[str]]:
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    if not lines or lines[0].split(",") != header:
        raise Mismatch(f"header {lines[:1]} != {header}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise Mismatch("ragged CSV row")
    return rows


def _column(rows, k: int) -> np.ndarray:
    return np.array([float(r[k]) for r in rows])


def _flags(rows, k: int) -> np.ndarray:
    values = [r[k] for r in rows]
    if any(v not in ("true", "false") for v in values):
        raise Mismatch("degenerate column holds something other than true/false")
    return np.array([v == "true" for v in values])


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _pair_eof(alpha, s1, s2):
    return 0.5 * (ref.family_eof(alpha, s1) + ref.family_eof(alpha, s2))


def check_fig1(args, text):
    n = args["grid_points"]
    rows = parse_csv(text, ["alpha", "eof_wzcm", "eof_scm"])
    if len(rows) != n:
        raise Mismatch(f"{len(rows)} rows, expected {n}")
    alpha = _grid(n)
    _close("alpha", _column(rows, 0), alpha, GRID_ATOL)
    _close("eof_wzcm", _column(rows, 1), ref.family_eof(alpha, 1.0), FIGURE_ATOL)
    _close("eof_scm", _column(rows, 2), ref.family_eof(alpha, ref.scm_shrink(2)), FIGURE_ATOL)


def check_fig2(args, text):
    n, alpha = args["grid_points"], args["alpha"]
    rows = parse_csv(text, ["s1", "s2", "avg_eof", "degenerate"])
    if len(rows) != n * n:
        raise Mismatch(f"{len(rows)} rows, expected {n * n}")
    g = _grid(n)
    s1, s2 = np.repeat(g, n), np.tile(g, n)
    _close("s1", _column(rows, 0), s1, GRID_ATOL)
    _close("s2", _column(rows, 1), s2, GRID_ATOL)
    inside, either = ref.region_answer(s1, s2)
    marked_out = np.array([r[2] == "outside_region" for r in rows])
    if ((marked_out == inside) & ~either).any():
        raise Mismatch("region membership differs from 4(1-s1-s2)^2 <= (1-s1)(1-s2)")
    have = ~marked_out
    values = np.array([float(r[2]) for r, h in zip(rows, have) if h])
    _close("avg_eof", values, _pair_eof(alpha, s1[have], s2[have]), FIGURE_ATOL)
    if (_flags(rows, 3) != ref.degenerate(s1, s2)).any():
        raise Mismatch("degenerate flags differ")


def _check_branch_rows(rows, s1, branch, s2_col: int, flag_col: int):
    """Checks s2 on the branch and the degenerate flags; returns the exact s2."""
    s2 = ref.boundary_s2(s1, branch)
    _close("s2", _column(rows, s2_col), s2, GRID_ATOL)
    if (_flags(rows, flag_col) != ref.degenerate(s1, s2)).any():
        raise Mismatch("degenerate flags differ")
    return s2


def check_fig3(args, text):
    n, alpha, branch = args["grid_points"], args["alpha"], args["branch"]
    rows = parse_csv(text, ["s1", "s2", "avg_eof", "degenerate"])
    if len(rows) != n:
        raise Mismatch(f"{len(rows)} rows, expected {n}")
    s1 = _grid(n)
    _close("s1", _column(rows, 0), s1, GRID_ATOL)
    s2 = _check_branch_rows(rows, s1, branch, 1, 3)
    _close("avg_eof", _column(rows, 2), _pair_eof(alpha, s1, s2), FIGURE_ATOL)


def check_fig4(args, text):
    n, branch = args["grid_points"], args["branch"]
    rows = parse_csv(text, ["alpha", "s1", "s2", "avg_eof", "degenerate"])
    if len(rows) != n * n:
        raise Mismatch(f"{len(rows)} rows, expected {n * n}")
    g = _grid(n)
    alpha, s1 = np.repeat(g, n), np.tile(g, n)
    _close("alpha", _column(rows, 0), alpha, GRID_ATOL)
    _close("s1", _column(rows, 1), s1, GRID_ATOL)
    s2 = _check_branch_rows(rows, s1, branch, 2, 4)
    _close("avg_eof", _column(rows, 3), _pair_eof(alpha, s1, s2), FIGURE_ATOL)


def check_fig5(args, text):
    n, branch, tol = args["grid_points"], args["branch"], args["quad_tol"]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    rows = parse_csv(text, header)
    if len(rows) != n:
        raise Mismatch(f"{len(rows)} rows, expected {n}")
    s1 = _grid(n)
    _close("s1", _column(rows, 0), s1, GRID_ATOL)
    s2 = _check_branch_rows(rows, s1, branch, 1, 5)
    _within_tol("mean_eof_wzcm", _column(rows, 3), ref.mean_eof(1.0), tol)
    _within_tol("mean_eof_scm", _column(rows, 4), ref.mean_eof(ref.scm_shrink(2)), tol)
    want = [ref.mean_eof_pair(a, b) for a, b in zip(s1, s2)]
    _within_tol("mean_eof_acm", _column(rows, 2), want, tol)


def mean_reference(machine: str, s1=None, s2=None) -> float:
    if machine == "wzcm":
        return ref.mean_eof(1.0)
    if machine == "scm":
        return ref.mean_eof(ref.scm_shrink(2))
    return ref.mean_eof_pair(s1, s2)


def check_mean(args, text):
    tol = args["quad_tol"]
    rows = parse_csv(text, ["value", "abs_error_estimate", "evaluations"])
    if len(rows) != 1:
        raise Mismatch(f"{len(rows)} rows, expected 1")
    value, estimate, evals = rows[0]
    if not evals.isdigit() or int(evals) < 5:
        raise Mismatch(f"evaluations {evals!r}")
    if not float(estimate) <= tol * (1.0 + 1e-8):
        raise Mismatch(f"error estimate {estimate} above tol {tol:g}")
    want = mean_reference(args["machine"], args.get("s1"), args.get("s2"))
    _within_tol("value", [float(value)], [want], tol)


def _clone_reference(args) -> tuple[np.ndarray, float]:
    alpha = args["alpha"]
    machine = args["machine"]
    if machine == "wzcm":
        coeffs = ref.BELL.conj() @ ref.family_state(alpha)
        return ref.wzcm_clone_from_bell(coeffs), 1.0
    s = ref.scm_shrink(args.get("clones", 2)) if machine == "scm" else args["s1"]
    return ref.shrink_clone(alpha, s), s


def check_clone(args, text):
    rows = parse_csv(text, ["row", "col", "re", "im"])
    if [(int(r[0]), int(r[1])) for r in rows] != [(i, j) for i in range(4) for j in range(4)]:
        raise Mismatch("clone rows are not the 16 entries in row-major order")
    want, _ = _clone_reference(args)
    _close("re", _column(rows, 2), want.real.reshape(-1), MATRIX_ATOL)
    _close("im", _column(rows, 3), want.imag.reshape(-1), MATRIX_ATOL)


def check_entangle(args, text):
    header = ["alpha", "concurrence", "eof"] + [f"lambda{k}" for k in range(1, 5)] + ["fidelity"]
    rows = parse_csv(text, header)
    if len(rows) != 1:
        raise Mismatch(f"{len(rows)} rows, expected 1")
    got = np.array([float(x) for x in rows[0]])
    rho, s = _clone_reference(args)
    alpha = args["alpha"]
    c = float(ref.family_concurrence(alpha, s))
    _, _, lambdas = ref.concurrence(rho)
    psi = ref.family_state(alpha)
    fid = float(np.vdot(psi, rho @ psi).real)
    _close("alpha", got[0], alpha, 0.0)
    _close("concurrence", got[1], c, FIGURE_ATOL)
    _close("eof", got[2], ref.eof_from_concurrence(c), FIGURE_ATOL)
    _close("lambdas", got[3:7], lambdas, GENERIC_ATOL)
    _close("fidelity", got[7], fid, MATRIX_ATOL)


CLI_CHECKS = {
    "fig1": check_fig1,
    "fig2": check_fig2,
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5": check_fig5,
    "mean": check_mean,
    "clone": check_clone,
    "entangle": check_entangle,
}


def check_concurrence(op, rec):
    rho = workloads.from_pairs(op["rho"]).reshape(4, 4)
    c, eof, lambdas = ref.concurrence(rho)
    _close("concurrence", rec["c"], c, GENERIC_ATOL)
    _close("eof", rec["eof"], eof, 2 * GENERIC_ATOL)
    _close("lambdas", rec["lambdas"], lambdas, GENERIC_ATOL)
    # a second, closed-form reference where the input family has one
    if op["kind"] == "werner":
        _close("werner concurrence", rec["c"], max(0.0, 1.5 * op["p"] - 0.5), GENERIC_ATOL)
    elif op["kind"] == "x":
        inner = abs(rho[1, 2]) - math.sqrt(rho[0, 0].real * rho[3, 3].real)
        outer = abs(rho[0, 3]) - math.sqrt(rho[1, 1].real * rho[2, 2].real)
        _close("X-state concurrence", rec["c"], 2 * max(0.0, inner, outer), GENERIC_ATOL)
    elif op.get("rank") == 1:
        _, v = np.linalg.eigh(rho)
        a, b, cc, d = v[:, -1]
        _close("pure-state concurrence", rec["c"], 2 * abs(a * d - b * cc), GENERIC_ATOL)


def check_partial_trace(op, rec):
    got = np.array(rec["re"]) + 1j * np.array(rec["im"])
    want = ref.wzcm_reduced(workloads.from_pairs(op["coeffs"]), op["subsystem"]).reshape(-1)
    _close("reduced re", got.real, want.real, MATRIX_ATOL)
    _close("reduced im", got.imag, want.imag, MATRIX_ATOL)


def outcome(op: dict, rec: dict, cli_verdict: str | None = None) -> str:
    """'ok', 'fault' or 'error' for one record of one operation.

    For cli operations, ``cli_verdict`` is the outcome of checking the
    last copy of the CSV, which every round's bytes must match.
    """
    if "error" in rec:
        return "error"
    if op["op"] == "cli":
        return cli_verdict if rec["rc"] == 0 else "error"
    try:
        (check_concurrence if op["op"] == "concurrence" else check_partial_trace)(op, rec)
    except Mismatch:
        return "error"
    return "ok"


def cli_verdict(op: dict, text: str) -> tuple[str, str | None]:
    """Outcome of one cli operation's CSV text, with the reason it failed."""
    try:
        CLI_CHECKS[op["cmd"]](op["args"], text)
    except Fault as exc:
        return ("fault" if op.get("fixed_fault") else "error"), str(exc)
    except (Mismatch, ValueError, IndexError) as exc:
        return "error", str(exc)
    return "ok", None
