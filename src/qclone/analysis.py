"""Entanglement curves, boundary-curve sweeps, and averages over the input family.

The clone of alpha|01> - beta|10> under an isotropic shrink s is an X-state
with concurrence C = max(0, 2 s alpha beta - (1-s)/2), where s = 1 for
wzcm, (M+4)/(5M) for scm and s1 or s2 for acm.  :func:`family_eof` applies
that closed form and Wootters' C -> EoF law elementwise, so each figure
sweep is one array expression over its whole grid; the alpha integrands
take the same closed form one float at a time in ``math``.

Every sweep is deterministic, and rows are emitted sorted ascending by
their input coordinates.  Degenerate shrink pairs are computed like any
other point but tagged, so downstream plotting can drop or mark them;
excluded region points carry None instead of a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cloners import (
    CONSTRAINT_SLACK,
    ConstraintViolatedError,
    ShrinkParams,
    acm_boundary_s2,
    acm_constraint_satisfied,
    acm_degenerate,
    acm_region_value,
    scm_clone,
    scm_shrink_factor,
)
from .entanglement import concurrence, eof_from_concurrence
from .states import psi_minus_family

#: default absolute tolerance of the adaptive quadrature.
QUAD_DEFAULT_TOL = 1e-7
#: recursion depth cap of the adaptive quadrature.
QUAD_MAX_DEPTH = 30
#: tolerances tighter than this are rejected as unreachable in float64.
QUAD_MIN_TOL = 1e-10
#: default number of grid points for figure sweeps.
GRID_POINTS_DEFAULT = 201

MACHINES = ("wzcm", "scm", "acm")


class QuadratureConvergenceError(RuntimeError):
    """Raised when adaptive refinement hits the depth cap before converging."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value, a-posteriori error estimate and evaluation count of an integral."""

    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SweepSeries:
    """A table of sweep results.

    ``rows`` holds (inputs, outputs) tuple pairs; ``axis_names`` names the
    flattened columns, inputs first.  Rows are sorted ascending by inputs
    and input tuples are unique.  Output entries are floats, None for
    points excluded from the allowed region, or booleans for flags.
    """

    axis_names: tuple[str, ...]
    rows: tuple[tuple[tuple, tuple], ...]
    machine_tag: str

    def __post_init__(self):
        inputs = [r[0] for r in self.rows]
        for a, b in zip(inputs, inputs[1:]):
            if b < a:
                raise ValueError("rows must be sorted ascending by inputs")
        if len(set(inputs)) != len(inputs):
            raise ValueError("duplicate input tuples in sweep rows")

    def iter_flat(self) -> Iterable[tuple]:
        """Rows as flat tuples aligned with axis_names."""
        for inputs, outputs in self.rows:
            yield inputs + outputs


def uniform_grid(n: int) -> np.ndarray:
    """n evenly spaced points covering [0, 1] inclusive."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    return np.linspace(0.0, 1.0, n)


def integrate_adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = QUAD_DEFAULT_TOL,
    *,
    max_depth: int = QUAD_MAX_DEPTH,
    label: str = "integral",
) -> QuadratureResult:
    """Adaptive Simpson quadrature of f over [a, b] to absolute tolerance tol.

    Interval acceptance uses the standard |S2 - S1| <= 15 tol test plus the
    S2 + (S2-S1)/15 correction; the first two refinement levels are always
    taken so a symmetric integrand cannot fake convergence on the top
    interval.  Raises QuadratureConvergenceError past ``max_depth`` levels.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol!r}")
    if tol < QUAD_MIN_TOL:
        raise ValueError(f"tolerance {tol!r} below the {QUAD_MIN_TOL:g} floor")
    evals = 0

    def feval(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    def refine(x0, f0, x2, f2, x4, f4, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        x3 = 0.5 * (x2 + x4)
        f1 = feval(x1)
        f3 = feval(x3)
        left = (x2 - x0) * (f0 + 4.0 * f1 + f2) / 6.0
        right = (x4 - x2) * (f2 + 4.0 * f3 + f4) / 6.0
        delta = left + right - whole
        if depth >= 2 and abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        if depth >= max_depth:
            raise QuadratureConvergenceError(
                f"{label}: no convergence on [{x0:g}, {x4:g}] at depth {max_depth}"
            )
        lv, le = refine(x0, f0, x1, f1, x2, f2, left, 0.5 * tol, depth + 1)
        rv, re = refine(x2, f2, x3, f3, x4, f4, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re

    fa = feval(a)
    fb = feval(b)
    mid = 0.5 * (a + b)
    fm = feval(mid)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    value, err = refine(a, fa, mid, fm, b, fb, whole, tol, 0)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def family_eof(alpha, s):
    """Entanglement of formation of the shrink-s clone of alpha|01> - beta|10>.

    Elementwise over broadcastable arrays of alpha and s, both in [0, 1]:
    C = max(0, 2 s alpha beta - (1-s)/2), then E = h((1 + sqrt(1 - C^2))/2).
    """
    alpha = np.asarray(alpha, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all((alpha >= 0.0) & (alpha <= 1.0)) and np.all((s >= 0.0) & (s <= 1.0))):
        raise ValueError("alpha and s must lie in [0, 1]")
    beta = np.sqrt(1.0 - alpha * alpha)
    c = np.clip(2.0 * s * alpha * beta - (1.0 - s) / 2.0, 0.0, 1.0)
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    y = 1.0 - x
    # same operation order as binary_entropy, with 0 log 0 = 0
    return 0.0 - x * np.log2(x) - y * np.log2(np.where(y > 0.0, y, 1.0))


def _family_eof_at(alpha: float, s: float) -> float:
    """family_eof at one point, through math: the quadrature integrand."""
    c = 2.0 * s * alpha * math.sqrt(1.0 - alpha * alpha) - (1.0 - s) / 2.0
    return eof_from_concurrence(min(max(c, 0.0), 1.0))


def _require_region(params: ShrinkParams) -> None:
    if not acm_constraint_satisfied(params):
        raise ConstraintViolatedError(
            f"(s1, s2) = ({params.s1!r}, {params.s2!r}) violates the region "
            f"constraint by {params.constraint_value()!r}"
        )


def _unit_grid(values: Sequence[float], name: str) -> np.ndarray:
    """Sorted unique grid values, checked to be non-empty and inside [0, 1]."""
    grid = np.unique(np.asarray(values, dtype=float))
    if grid.size == 0:
        raise ValueError(f"empty {name} grid")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError(f"{name} grid must stay inside [0, 1]")
    return grid


def avg_entanglement_acm(alpha: float, params: ShrinkParams) -> float:
    """Mean entanglement of formation of the two asymmetric-cloner copies.

    Raises ConstraintViolatedError outside the allowed (s1, s2) region;
    the degenerate endpoints are allowed and simply evaluated.
    """
    _require_region(params)
    return 0.5 * (_family_eof_at(alpha, params.s1) + _family_eof_at(alpha, params.s2))


def entanglement_curve(
    machine: str,
    grid: Sequence[float],
    params: ShrinkParams | None = None,
) -> SweepSeries:
    """Per-alpha entanglement of formation of one clone along a grid.

    ``machine`` is "wzcm", "scm" (two copies) or "acm"; the asymmetric
    machine needs ``params`` and reports the two-copy average.
    """
    if machine not in MACHINES:
        raise ValueError(f"machine must be one of {MACHINES}, got {machine!r}")
    alphas = _unit_grid(grid, "alpha")
    if machine == "acm":
        if params is None:
            raise ValueError("the asymmetric machine needs shrink parameters")
        _require_region(params)
        values = 0.5 * (family_eof(alphas, params.s1) + family_eof(alphas, params.s2))
    else:
        values = family_eof(alphas, 1.0 if machine == "wzcm" else scm_shrink_factor(2))
    rows = tuple(((a,), (v,)) for a, v in zip(alphas.tolist(), values.tolist()))
    return SweepSeries(axis_names=("alpha", "eof"), rows=rows, machine_tag=machine)


def mean_entanglement(machine: str, tol: float = QUAD_DEFAULT_TOL) -> QuadratureResult:
    """Entanglement of formation of one clone averaged over alpha in [0, 1]."""
    if machine == "wzcm":
        s = 1.0
    elif machine == "scm":
        s = scm_shrink_factor(2)
    else:
        raise ValueError(f"machine must be 'wzcm' or 'scm', got {machine!r}")
    return integrate_adaptive_simpson(
        lambda a: _family_eof_at(a, s),
        0.0,
        1.0,
        tol,
        label=f"mean clone entanglement ({machine})",
    )


def mean_entanglement_acm(
    params: ShrinkParams, tol: float = QUAD_DEFAULT_TOL
) -> QuadratureResult:
    """Two-copy average entanglement of the asymmetric cloner, averaged over alpha."""
    _require_region(params)
    return integrate_adaptive_simpson(
        lambda a: avg_entanglement_acm(a, params),
        0.0,
        1.0,
        tol,
        label=f"mean clone entanglement (acm, s1={params.s1:g}, s2={params.s2:g})",
    )


def acm_curve_sweep(
    s1_grid: Sequence[float],
    branch: str = "upper",
    alpha: float | None = None,
    tol: float = QUAD_DEFAULT_TOL,
) -> SweepSeries:
    """Two-copy average entanglement along a boundary branch of the region.

    For each s1 in the grid, s2 is placed on the chosen boundary branch.
    With a fixed ``alpha`` the rows hold the per-alpha average; with
    ``alpha=None`` they hold the mean over alpha in [0, 1] computed to
    quadrature tolerance ``tol``.  Degenerate endpoints are tagged.
    """
    s1s = _unit_grid(s1_grid, "s1")
    s2s = np.clip(acm_boundary_s2(s1s, branch), 0.0, 1.0)
    if alpha is None:
        values = [
            mean_entanglement_acm(ShrinkParams(s1, s2), tol).value
            for s1, s2 in zip(s1s.tolist(), s2s.tolist())
        ]
    else:
        values = (0.5 * (family_eof(alpha, s1s) + family_eof(alpha, s2s))).tolist()
    rows = tuple(
        ((s1,), (s2, value, flag))
        for s1, s2, value, flag in zip(
            s1s.tolist(), s2s.tolist(), values, acm_degenerate(s1s, s2s).tolist()
        )
    )
    name = "mean_eof" if alpha is None else "avg_eof"
    return SweepSeries(
        axis_names=("s1", "s2", name, "degenerate"),
        rows=rows,
        machine_tag="acm",
    )


def scm_multiclone_entanglement(alpha: float, counts: Sequence[int]) -> SweepSeries:
    """Concurrence and entanglement of one symmetric clone per copy count."""
    ms = sorted(set(int(m) for m in counts))
    state = psi_minus_family(alpha)
    rows = []
    for m in ms:
        report = concurrence(scm_clone(state, m))
        rows.append(((m,), (report.concurrence, report.eof)))
    return SweepSeries(
        axis_names=("clones", "concurrence", "eof"),
        rows=tuple(rows),
        machine_tag="scm",
    )


def acm_region_grid(resolution: int, alpha: float) -> SweepSeries:
    """Two-copy average entanglement over an (s1, s2) grid of the unit square.

    Points outside the allowed region carry None; degenerate endpoints are
    evaluated but tagged.
    """
    grid = uniform_grid(resolution)
    s1, s2 = grid[:, None], grid[None, :]
    eof = family_eof(alpha, grid)
    values = 0.5 * (eof[:, None] + eof[None, :])
    inside = acm_region_value(s1, s2) <= CONSTRAINT_SLACK
    flags = acm_degenerate(s1, s2)
    g = grid.tolist()
    rows = tuple(
        ((a, b), (value if keep else None, flag))
        for a, row_values, row_inside, row_flags in zip(
            g, values.tolist(), inside.tolist(), flags.tolist()
        )
        for b, value, keep, flag in zip(g, row_values, row_inside, row_flags)
    )
    return SweepSeries(
        axis_names=("s1", "s2", "avg_eof", "degenerate"),
        rows=rows,
        machine_tag="acm",
    )


def acm_alpha_surface(
    alpha_grid: Sequence[float],
    s1_grid: Sequence[float],
    branch: str = "upper",
) -> SweepSeries:
    """Two-copy average entanglement over (alpha, s1) with s2 on a boundary branch."""
    alphas = _unit_grid(alpha_grid, "alpha")
    s1s = _unit_grid(s1_grid, "s1")
    s2s = np.clip(acm_boundary_s2(s1s, branch), 0.0, 1.0)
    a = alphas[:, None]
    values = 0.5 * (family_eof(a, s1s) + family_eof(a, s2s))
    boundary = tuple(
        zip(s1s.tolist(), s2s.tolist(), acm_degenerate(s1s, s2s).tolist())
    )
    rows = tuple(
        ((alpha, s1), (s2, value, flag))
        for alpha, row_values in zip(alphas.tolist(), values.tolist())
        for (s1, s2, flag), value in zip(boundary, row_values)
    )
    return SweepSeries(
        axis_names=("alpha", "s1", "s2", "avg_eof", "degenerate"),
        rows=rows,
        machine_tag="acm",
    )
