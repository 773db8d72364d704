"""Entanglement curves, boundary-curve sweeps, and averages over the input family.

The clone of alpha|01> - beta|10> under an isotropic shrink s is an X-state
with concurrence C = max(0, 2 s alpha beta - (1-s)/2), where s = 1 for
wzcm, (M+4)/(5M) for scm and s1 or s2 for acm.  :func:`family_eof` applies
that closed form and Wootters' C -> EoF law elementwise, so each figure
sweep is one array expression over its whole grid.  :func:`family_mean`
integrates the same closed form over alpha for a whole array of shrinks
at once, by Gauss-Legendre on the pieces where C > 0.

Every sweep is deterministic and returns a :class:`SweepSeries`: one
numpy array per column, its rows in ascending order of their input
coordinates, and 2-D grids laid out by ``np.repeat``/``np.tile``.
Degenerate shrink pairs are computed like any other point but tagged, so
downstream plotting can drop or mark them; points outside the allowed
region are masked as missing, and ``iter_flat`` reads them as None.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cloners import (
    CONSTRAINT_SLACK,
    ConstraintViolatedError,
    ShrinkParams,
    acm_boundary_s2,
    acm_degenerate,
    acm_region_value,
    scm_shrink_factor,
)

#: default absolute tolerance of the quadratures.
QUAD_DEFAULT_TOL = 1e-7
#: tolerances tighter than this are rejected as unreachable in float64.
QUAD_MIN_TOL = 1e-10
#: Gauss-Legendre orders n of family_mean, tried in turn; each rung pairs
#: the n- and 2n-point rules, whose difference is the error estimate.
GL_LADDER = (16, 32, 64)
#: added to every family_mean estimate: a bound on float64 rounding in the
#: integral, as the binary entropy in E carries absolute errors up to
#: ~eps log2(1/eps) where C is small.
GL_ROUNDOFF = 1e-13
#: default number of grid points for figure sweeps.
GRID_POINTS_DEFAULT = 201

MACHINES = ("wzcm", "scm", "acm")


class QuadratureConvergenceError(RuntimeError):
    """Raised when a quadrature runs out of refinement before converging."""


@dataclass(frozen=True)
class QuadratureResult:
    """Value, a-posteriori error estimate and evaluation count of an integral.

    :func:`family_mean` returns arrays of values and estimates, one entry
    per shrink; ``evaluations`` counts integrand evaluations in total.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


@dataclass(frozen=True, eq=False)
class SweepSeries:
    """A table of sweep results, one numpy array per column.

    ``axis_names`` names ``columns``; rows are in strictly ascending
    lexicographic order of the first ``inputs`` columns, so inputs are
    unique.  ``missing`` is None or one boolean mask (or None) per column,
    set at points excluded from the allowed region.
    """

    axis_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    inputs: int
    missing: tuple[np.ndarray | None, ...] | None = None

    def __post_init__(self):
        n = len(self.columns[0])
        masks = self.missing or (None,) * len(self.columns)
        if not len(self.axis_names) == len(self.columns) == len(masks):
            raise ValueError("one column and one mask per axis name")
        if any(len(a) != n for a in (*self.columns, *(m for m in masks if m is not None))):
            raise ValueError("columns and masks differ in length")
        # rows k and k+1: already increasing, or equal on the inputs so far
        first, *rest = self.columns[: self.inputs]
        step = first[1:] - first[:-1]
        increasing, equal = step > 0, step == 0
        for col in rest:
            step = col[1:] - col[:-1]
            increasing |= equal & (step > 0)
            equal &= step == 0
        if not increasing.all():
            if equal.any():
                raise ValueError("duplicate input tuples in sweep rows")
            raise ValueError("rows must be sorted ascending by inputs")

    def iter_flat(self) -> Iterable[tuple]:
        """Rows as flat tuples aligned with axis_names: Python scalars, and
        None at missing points."""
        cols = [c.tolist() for c in self.columns]
        for j, mask in enumerate(self.missing or ()):
            if mask is not None:
                cols[j] = [None if m else v for v, m in zip(cols[j], mask.tolist())]
        return zip(*cols)


def uniform_grid(n: int) -> np.ndarray:
    """n evenly spaced points covering [0, 1] inclusive."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    return np.linspace(0.0, 1.0, n)


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol!r}")
    if tol < QUAD_MIN_TOL:
        raise ValueError(f"tolerance {tol!r} below the {QUAD_MIN_TOL:g} floor")


_SMALLEST = np.finfo(np.float64).smallest_subnormal


def _wootters_eof(c: np.ndarray) -> np.ndarray:
    """Wootters' C -> EoF law elementwise on concurrences in [0, 1]."""
    c2 = c * c
    y = c2 / (2.0 + 2.0 * np.sqrt(1.0 - c2))
    # as eof_from_concurrence; raising y = 0 to the smallest subnormal makes
    # 0 log 0 = 0 and leaves every y > 0 as it is
    return ((y - 1.0) * np.log1p(-y) - y * np.log(np.maximum(y, _SMALLEST))) / math.log(2.0)


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
    return _wootters_eof(np.clip(2.0 * s * alpha * beta - (1.0 - s) / 2.0, 0.0, 1.0))


@functools.cache
def _gl_rung(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared nodes and weights of the n- and 2n-point rules on u in [0, 1].

    The 3n nodes of both rules sit in one array, so one evaluation of the
    integrand serves both; column k of the (3n, 2) weights holds rule k's
    weights (zero on the other rule's nodes) times the Jacobian 2u of
    theta = end + h u^2.
    """
    u1, w1 = np.polynomial.legendre.leggauss(n)
    u2, w2 = np.polynomial.legendre.leggauss(2 * n)
    u = 0.5 * (np.concatenate((u1, u2)) + 1.0)
    w = np.zeros((3 * n, 2))
    w[:n, 0] = w1
    w[n:, 1] = w2
    return u * u, w * u[:, None]


def family_mean(s, tol: float = QUAD_DEFAULT_TOL) -> QuadratureResult:
    """Integral over alpha in [0, 1] of family_eof(alpha, s), for each shrink in s.

    With alpha = sin(theta) the integrand is E(theta) cos(theta) on
    [0, pi/2], and C = max(0, s sin(2 theta) - (1-s)/2) is nonzero only
    between the kink theta1 = asin((1-s)/(2s))/2 and its mirror
    pi/2 - theta1 (none for s <= 1/3).  C is symmetric about pi/4, so the
    two halves fold into one integral of E (cos + sin) over [theta1, pi/4];
    theta = theta1 + h u^2 smooths the C^2 log C start at the kink.  Each
    rung of GL_LADDER applies the n- and 2n-point Gauss-Legendre rules to
    one array evaluation over every shrink; the 2n value is returned with
    |Q_2n - Q_n| + GL_ROUNDOFF as its estimate, and the next rung is tried
    while any estimate exceeds tol.  Raises QuadratureConvergenceError past
    the last rung.
    """
    _check_tol(tol)
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("shrink factors must lie in [0, 1]")
    col = s.reshape(-1, 1)
    # k >= 1, so theta1 = pi/4 and h = 0, for every s <= 1/3
    k = np.minimum((1.0 - col) / np.maximum(2.0 * col, 2.0 / 3.0), 1.0)
    theta1 = 0.5 * np.arcsin(k)
    h = 0.25 * np.pi - theta1
    evals = 0
    for n in GL_LADDER:
        u2, w = _gl_rung(n)
        theta = theta1 + h * u2
        c = np.clip(col * np.sin(2.0 * theta) - (1.0 - col) / 2.0, 0.0, 1.0)
        # cos + sin = sqrt(2) sin(theta + pi/4)
        q = (_wootters_eof(c) * np.sin(theta + 0.25 * np.pi)) @ w
        q *= math.sqrt(2.0) * h
        evals += u2.size * col.shape[0]
        value = q[:, 1].reshape(s.shape)
        err = (np.abs(q[:, 1] - q[:, 0]) + GL_ROUNDOFF).reshape(s.shape)
        if np.all(err <= tol):
            return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)
    worst = int(np.argmax(err))
    raise QuadratureConvergenceError(
        f"alpha mean at s = {float(s.flat[worst])!r}: estimate {float(err.flat[worst]):g} "
        f"above tol {tol:g} at Gauss-Legendre order {2 * GL_LADDER[-1]}"
    )


def _require_region(s1, s2) -> None:
    """Raise ConstraintViolatedError at the first (s1, s2) pair outside the region."""
    excess = np.ravel(acm_region_value(s1, s2))
    outside = np.flatnonzero(excess > CONSTRAINT_SLACK)
    if outside.size:
        k = outside[0]
        raise ConstraintViolatedError(
            f"(s1, s2) = ({float(np.ravel(s1)[k])!r}, {float(np.ravel(s2)[k])!r}) "
            f"violates the region constraint by {float(excess[k])!r}"
        )


def _unit_grid(values: Sequence[float], name: str) -> np.ndarray:
    """Sorted unique grid values, checked to be non-empty and inside [0, 1]."""
    grid = np.unique(np.asarray(values, dtype=float))
    if grid.size == 0:
        raise ValueError(f"empty {name} grid")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError(f"{name} grid must stay inside [0, 1]")
    return grid


def mean_entanglement(machine: str, tol: float = QUAD_DEFAULT_TOL) -> QuadratureResult:
    """Entanglement of formation of one clone averaged over alpha in [0, 1]."""
    if machine == "wzcm":
        s = 1.0
    elif machine == "scm":
        s = scm_shrink_factor(2)
    else:
        raise ValueError(f"machine must be 'wzcm' or 'scm', got {machine!r}")
    res = family_mean(s, tol)
    return QuadratureResult(
        value=float(res.value),
        abs_error_estimate=float(res.abs_error_estimate),
        evaluations=res.evaluations,
    )


def mean_entanglement_acm(
    params: ShrinkParams, tol: float = QUAD_DEFAULT_TOL
) -> QuadratureResult:
    """Two-copy average entanglement of the asymmetric cloner, averaged over alpha."""
    _require_region(params.s1, params.s2)
    res = family_mean((params.s1, params.s2), tol)
    value, err = res.value, res.abs_error_estimate
    return QuadratureResult(
        value=float(0.5 * (value[0] + value[1])),
        abs_error_estimate=float(0.5 * (err[0] + err[1])),
        evaluations=res.evaluations,
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
        _require_region(s1s, s2s)
        means = family_mean(np.stack((s1s, s2s)), tol).value
        values = 0.5 * (means[0] + means[1])
    else:
        eof = family_eof(alpha, np.stack((s1s, s2s)))
        values = 0.5 * (eof[0] + eof[1])
    name = "mean_eof" if alpha is None else "avg_eof"
    return SweepSeries(
        axis_names=("s1", "s2", name, "degenerate"),
        columns=(s1s, s2s, values, acm_degenerate(s1s, s2s)),
        inputs=1,
    )


def acm_region_grid(resolution: int, alpha: float) -> SweepSeries:
    """Two-copy average entanglement over an (s1, s2) grid of the unit square.

    Rows run over s1, then s2.  Points outside the allowed region are
    missing from avg_eof; degenerate endpoints are evaluated but tagged.
    """
    grid = uniform_grid(resolution)
    n = grid.size
    s1, s2 = np.repeat(grid, n), np.tile(grid, n)
    eof = family_eof(alpha, grid)
    values = 0.5 * (np.repeat(eof, n) + np.tile(eof, n))
    outside = acm_region_value(s1, s2) > CONSTRAINT_SLACK
    return SweepSeries(
        axis_names=("s1", "s2", "avg_eof", "degenerate"),
        columns=(s1, s2, values, acm_degenerate(s1, s2)),
        inputs=2,
        missing=(None, None, outside, None),
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
    eof = family_eof(alphas[:, None], np.stack((s1s, s2s))[:, None, :])
    values = 0.5 * (eof[0] + eof[1])
    s1, s2 = np.tile(s1s, alphas.size), np.tile(s2s, alphas.size)
    return SweepSeries(
        axis_names=("alpha", "s1", "s2", "avg_eof", "degenerate"),
        columns=(np.repeat(alphas, s1s.size), s1, s2, values.ravel(), acm_degenerate(s1, s2)),
        inputs=2,
    )
