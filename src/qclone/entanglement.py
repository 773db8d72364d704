"""Entanglement of formation for two-qubit states via concurrence.

For a density matrix rho with spin-flipped partner
rho_tilde = (sigma_y x sigma_y) rho* (sigma_y x sigma_y), the concurrence is
C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
eigenvalues of rho * rho_tilde, and the entanglement of formation is

    E = h((1 + sqrt(1 - C^2)) / 2),    h(x) = -x log2 x - (1-x) log2 (1-x).

Instead of a non-Hermitian eigensolve of rho*rho_tilde, the l_i are taken
as the singular values of F^T Y F, with Y = sigma_y x sigma_y and
F = V sqrt(w) the eigen-factor of rho (F F^dag = rho): sqrt(rho) Y sqrt(rho)*
= V conj(F^T Y F) V^T has the same singular values, whose squares are that
spectrum.  Y is a signed anti-diagonal, so F^T Y is F^T with its columns
reversed and signed, and a state costs one eigh, one svd and one 4x4
product.  No eigenvalue goes under a square root, so a small l_i keeps an
absolute error of a few eps.  Zero eigenvalues of rho come back from eigh
as noise of a few eps times max|w|, of either sign, so every w at or below
SQRT_ZERO_FLOOR times max|w| is set to 0 before the square root: the factor
of a rank-deficient rho then has no ~1e-8 column off its range.  rho must
have unit trace: a scaled rho scales every l_i, and C would be clipped to 1
unseen.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from ._constants import check_unit
from .qmath import (
    EIG_ROUNDOFF_NEG,
    SQRT_ZERO_FLOOR,
    NotNormalizedError,
    NotPSDError,
    _as_matrix4,
    as_state_vector,
    hermitian_eigen,
)

#: trace of a density matrix must match 1 within this.
TRACE_TOL = 1e-10
#: an expectation value of a Hermitian operator with imaginary part at or
#: above this is an internal error, not a warning.
IMAG_TOL = 1e-12

#: sigma_y x sigma_y over the computational basis.
SIGMA_Y_PAIR = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
#: its nonzero entries Y[3-j, j], so that F^T Y = F^T[:, ::-1] * _FLIP_SIGNS.
_FLIP_SIGNS = SIGMA_Y_PAIR[::-1].diagonal().copy()


class EntanglementReport(NamedTuple):
    """Concurrence, entanglement of formation and the spectrum behind them.

    A named tuple, read by field or by position.  ``lambdas`` holds the four
    l_i in decreasing order.  :func:`concurrence` is the only producer and
    always leaves ``method`` at ``"generic"``; the field stays only because
    the benchmark's ``perfbench/child.py`` reads it (ROADMAP item 5).
    """

    concurrence: float
    eof: float
    lambdas: tuple[float, float, float, float]
    method: str = "generic"


def _check_trace(trace: float) -> None:
    if abs(trace - 1.0) > TRACE_TOL:
        raise NotNormalizedError(f"density matrix trace {trace!r} differs from 1")


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation as a function of concurrence.

    h(x) at x = (1 + sqrt(1 - C^2))/2, evaluated through the small side
    y = 1 - x = C^2 / (2 (1 + sqrt(1 - C^2))) and log1p(-y): forming 1 - x
    by subtraction would lose the relative precision of E at small C.
    """
    check_unit("concurrence", c)
    c2 = c * c
    y = c2 / (2.0 + 2.0 * math.sqrt(1.0 - c2))
    if y == 0.0:
        return 0.0
    return ((y - 1.0) * math.log1p(-y) - y * math.log(y)) / math.log(2.0)


# a decorator, as on qmath.hermitian_eigen, so the errstate is built once:
# a failed SVD returns NaN outputs and raises the invalid flag, which
# stays silent here
@np.errstate(all="ignore")
def concurrence(rho) -> EntanglementReport:
    """Concurrence and entanglement of formation of a two-qubit state.

    Reads the l_i off as the singular values of F^T * (sigma_y x sigma_y) * F
    with F = V sqrt(w) the eigen-factor of rho, and sets to 0 every l_i and
    a C at or below SQRT_ZERO_FLOOR * l1, the size of their rounding error.
    Raises as qmath.hermitian_eigen does on a non-Hermitian rho, NotPSDError
    on an eigenvalue below -EIG_ROUNDOFF_NEG, NotNormalizedError on a trace
    off 1 by more than TRACE_TOL and LinAlgError when the SVD fails.
    """
    values, vectors = hermitian_eigen(rho)
    w = values.tolist()  # descending
    if w[3] < -EIG_ROUNDOFF_NEG:
        raise NotPSDError(f"eigenvalue {w[3]!r} below the -{EIG_ROUNDOFF_NEG:g} roundoff floor")
    floor = SQRT_ZERO_FLOOR * max(w[0], -w[3])
    kept = [x if x > floor else 0.0 for x in w]
    # tr rho = sum(w), up to the noise set to 0 above
    _check_trace(sum(kept))
    factor = vectors * [math.sqrt(x) for x in kept]
    sandwich = (factor.T[:, ::-1] * _FLIP_SIGNS) @ factor
    l = _umath_linalg.svd(sandwich).tolist()
    if math.isnan(l[0]):
        raise np.linalg.LinAlgError("SVD did not converge")
    floor = SQRT_ZERO_FLOOR * l[0]
    lams = tuple([x if x > floor else 0.0 for x in l])
    c = lams[0] - lams[1] - lams[2] - lams[3]
    c = min(c, 1.0) if c > floor else 0.0
    return EntanglementReport(c, eof_from_concurrence(c), lams)


def fidelity(reference, rho) -> float:
    """<psi|rho|psi> for a normalized reference and a unit-trace rho, clamped to [0, 1]."""
    v = as_state_vector(reference, 4)
    m = _as_matrix4(rho)
    _check_trace(float(m.trace().real))
    value = complex(np.vdot(v, m @ v))
    if abs(value.imag) >= IMAG_TOL:
        raise ArithmeticError(f"fidelity came out non-real: {value!r}")
    return min(max(value.real, 0.0), 1.0)
