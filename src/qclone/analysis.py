"""Entanglement of the family's clones and averages over the input family.

The clone of alpha|01> - beta|10> under an isotropic shrink s is an X-state
with concurrence C = max(0, 2 s alpha beta - (1-s)/2), where s is the
copy's shrink, :func:`qclone.cloners.family_shrink`.  :func:`family_eof`
applies that closed form and Wootters' C -> EoF law elementwise, so each
figure is one array expression over its whole grid.  :func:`family_mean`
integrates the same closed form over alpha for a whole array of shrinks
at once: in the variable t = cos(theta) - sin(theta), alpha = sin(theta),
C is the parabola c0 - s t^2 and the mean is one integral of E over the
t where C > 0, by Gauss-Legendre, with no trigonometry.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .cloners import (
    CONSTRAINT_SLACK,
    ConstraintViolatedError,
    ShrinkParams,
    _in_unit_interval,
    acm_region_value,
    family_shrink,
)

#: default absolute tolerance of the quadratures.
QUAD_DEFAULT_TOL = 1e-7
#: tolerances tighter than this are rejected as unreachable in float64.
QUAD_MIN_TOL = 1e-10
#: Gauss-Legendre order n of family_mean: it pairs the n- and 2n-point
#: rules, whose difference is the error estimate.  At n = 16 the largest
#: estimate over 200001 evenly spaced shrinks, and 4000 more next to
#: s = 1/3 and s = 1, is 9.77e-13, well inside QUAD_MIN_TOL.
GL_ORDER = 16
#: added to every family_mean estimate: a bound on float64 rounding in the
#: integral, as the binary entropy in E carries absolute errors up to
#: ~eps log2(1/eps) where C is small.
GL_ROUNDOFF = 1e-13


class QuadratureConvergenceError(RuntimeError):
    """Raised when a quadrature's error estimate exceeds its tolerance."""


class QuadratureResult(NamedTuple):
    """Value, a-posteriori error estimate and evaluation count of an integral.

    A named tuple, read by field or by position.  :func:`family_mean`
    returns arrays of values and estimates, one entry per shrink;
    ``evaluations`` counts integrand evaluations in total.
    """

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


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


def _family_eof(alpha, s):
    """family_eof without its range check, for inputs already in [0, 1]:
    float arrays (or a float alpha) that a caller built or checked itself."""
    beta = np.sqrt(1.0 - alpha * alpha)
    return _wootters_eof(np.minimum(np.maximum(2.0 * s * alpha * beta - (1.0 - s) / 2.0, 0.0), 1.0))


def family_eof(alpha, s):
    """Entanglement of formation of the shrink-s clone of alpha|01> - beta|10>.

    Elementwise over broadcastable arrays of alpha and s, both in [0, 1]:
    C = max(0, 2 s alpha beta - (1-s)/2), then E = h((1 + sqrt(1 - C^2))/2).
    This is the range check (NaN fails it) followed by :func:`_family_eof`,
    which the figure commands call directly on the grids they build.
    """
    alpha = np.asarray(alpha, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (_in_unit_interval(alpha) and _in_unit_interval(s)):
        raise ValueError("alpha and s must lie in [0, 1]")
    return _family_eof(alpha, s)


@functools.cache
def _gl_rules(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node shapes and weights of the n- and 2n-point rules on u in [0, 1].

    The 3n nodes of both rules sit in one array, so one evaluation of the
    integrand serves both.  The shapes are g = u^2 (2 - u^2), the fraction
    of c0 that C reaches at node u; column k of the (3n, 2) weights holds
    rule k's weights (zero on the other rule's nodes) times the Jacobian 2u
    of t = T (1 - u^2) over T.
    """
    u1, w1 = np.polynomial.legendre.leggauss(n)
    u2, w2 = np.polynomial.legendre.leggauss(2 * n)
    u = 0.5 * (np.concatenate((u1, u2)) + 1.0)
    w = np.zeros((3 * n, 2))
    w[:n, 0] = w1
    w[n:, 1] = w2
    sq = u * u
    return sq * (2.0 - sq), w * u[:, None]


def family_mean(s, tol: float = QUAD_DEFAULT_TOL) -> QuadratureResult:
    """Integral over alpha in [0, 1] of family_eof(alpha, s), for each shrink in s.

    With alpha = sin(theta) the integrand is E(theta) cos(theta) on
    [0, pi/2], and C = s sin(2 theta) - (1-s)/2 is symmetric about pi/4, so
    the two halves fold into one integral of E (cos + sin) over [0, pi/4].
    With sin(2 theta) = 1 - t^2, (cos + sin) dtheta = dt and the mean is
    the integral of E(c0 - s t^2) over t in [0, T]: c0 = max(0, 1.5 s - 0.5)
    is C at the singlet and T = sqrt(c0/s) is where C reaches 0 (T = 0 for
    s <= 1/3).  t = T (1 - u^2) smooths the C^2 log C start at the kink and
    leaves T times the integral of E(c0 u^2 (2 - u^2)) 2u over u in [0, 1].
    The n- and 2n-point Gauss-Legendre rules (n = GL_ORDER) share one array
    evaluation over every shrink; the 2n value is returned with
    |Q_2n - Q_n| + GL_ROUNDOFF as its estimate.  Raises
    QuadratureConvergenceError if any estimate exceeds tol.
    """
    _check_tol(tol)
    s = np.asarray(s, dtype=float)
    if not _in_unit_interval(s):
        raise ValueError("shrink factors must lie in [0, 1]")
    col = s.reshape(-1, 1)
    c0 = np.maximum(1.5 * col - 0.5, 0.0)
    g, w = _gl_rules(GL_ORDER)
    # einsum, not @, whose BLAS kernel follows the row count: a shrink's
    # bits must not depend on its batch
    q = np.einsum("ij,jk->ik", _wootters_eof(c0 * g), w)
    # c0 = 0 for every s <= 1/3, so the floor on s only keeps 0/0 away
    q *= np.sqrt(c0 / np.maximum(col, 1.0 / 3.0))
    value = q[:, 1].reshape(s.shape)
    err = (np.abs(q[:, 1] - q[:, 0]) + GL_ROUNDOFF).reshape(s.shape)
    # a NaN estimate fails, as a NaN shrink fails the range check
    if not err.max(initial=0.0) <= tol:
        worst = int(np.argmax(err))
        raise QuadratureConvergenceError(
            f"alpha mean at s = {float(s.flat[worst])!r}: estimate {float(err.flat[worst]):g} "
            f"above tol {tol:g} at Gauss-Legendre order {2 * GL_ORDER}"
        )
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=g.size * col.shape[0])


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


def mean_entanglement(machine: str, tol: float = QUAD_DEFAULT_TOL) -> QuadratureResult:
    """Entanglement of formation of one wzcm or two-copy scm clone averaged
    over alpha in [0, 1]; an acm pair goes to :func:`mean_entanglement_acm`."""
    if machine == "acm":
        raise ValueError("an acm pair has two shrinks: use mean_entanglement_acm")
    res = family_mean(family_shrink(machine), tol)
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
