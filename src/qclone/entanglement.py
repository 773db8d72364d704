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
absolute error of a few eps.  rho must have unit trace: a scaled rho scales
every l_i, and C would be clipped to 1 unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import SQRT_ZERO_FLOOR, NotNormalizedError, _as_matrix4, as_state_vector, psd_factor

#: trace of a density matrix must match 1 within this.
TRACE_TOL = 1e-10
#: entries outside the diagonal and anti-diagonal must stay below this for
#: the closed-form X-state route to apply.
XSTATE_TOL = 1e-12
#: an expectation value of a Hermitian operator with imaginary part at or
#: above this is an internal error, not a warning.
IMAG_TOL = 1e-12

#: sigma_y x sigma_y over the computational basis.
SIGMA_Y_PAIR = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
#: its nonzero entries Y[3-j, j], so that F^T Y = F^T[:, ::-1] * _FLIP_SIGNS.
_FLIP_SIGNS = SIGMA_Y_PAIR[::-1].diagonal().copy()

#: index pairs allowed to be nonzero in an X-shaped density matrix.
_X_PATTERN = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}


class NotXStateError(ValueError):
    """Raised when the X-state closed form is applied off-pattern."""


@dataclass(frozen=True)
class EntanglementReport:
    """Concurrence, entanglement of formation and the spectrum behind them.

    ``lambdas`` holds the four l_i in decreasing order; ``method`` records
    which route produced the numbers.
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
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"concurrence must lie in [0, 1], got {c!r}")
    c2 = c * c
    y = c2 / (2.0 + 2.0 * math.sqrt(1.0 - c2))
    if y == 0.0:
        return 0.0
    return ((y - 1.0) * math.log1p(-y) - y * math.log(y)) / math.log(2.0)


def concurrence(rho) -> EntanglementReport:
    """Concurrence and entanglement of formation of a two-qubit state.

    Reads the l_i off as the singular values of
    F^T * (sigma_y x sigma_y) * F with F = psd_factor(rho), and sets to 0
    every l_i and a C at or below SQRT_ZERO_FLOOR * l1, the size of their
    rounding error.  psd_factor raises NotPSDError on a non-PSD rho, and a
    trace off 1 by more than TRACE_TOL raises NotNormalizedError.
    """
    factor = psd_factor(rho)
    # tr rho = |F|_F^2 up to the eigenvalues below 1e-10 that the factor
    # sets to 0; one dot product costs a third of np.trace on rho
    _check_trace(float(np.vdot(factor, factor).real))
    l = np.linalg.svd((factor.T[:, ::-1] * _FLIP_SIGNS) @ factor, compute_uv=False).tolist()
    floor = SQRT_ZERO_FLOOR * l[0]
    lams = tuple(x if x > floor else 0.0 for x in l)
    c = lams[0] - lams[1] - lams[2] - lams[3]
    c = min(c, 1.0) if c > floor else 0.0
    return EntanglementReport(concurrence=c, eof=eof_from_concurrence(c), lambdas=lams)


def concurrence_xstate(rho) -> float:
    """Closed-form concurrence of an X-shaped density matrix.

    2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22))
    with indices over (|00>, |01>, |10>, |11>).  Raises NotXStateError when
    any off-pattern entry reaches XSTATE_TOL, and NotNormalizedError when
    the trace is off 1 by more than TRACE_TOL.
    """
    m = _as_matrix4(rho)
    _check_trace(float(m.trace().real))
    for i in range(4):
        for j in range(4):
            if (i, j) not in _X_PATTERN and abs(m[i, j]) >= XSTATE_TOL:
                raise NotXStateError(f"entry ({i}, {j}) = {m[i, j]!r} breaks the X pattern")
    d = [max(float(m[i, i].real), 0.0) for i in range(4)]
    inner = abs(m[1, 2]) - math.sqrt(d[0] * d[3])
    outer = abs(m[0, 3]) - math.sqrt(d[1] * d[2])
    return 2.0 * max(0.0, inner, outer)


def fidelity(reference, rho) -> float:
    """<psi|rho|psi> for a normalized reference and a unit-trace rho, clamped to [0, 1]."""
    v = as_state_vector(reference, 4)
    m = _as_matrix4(rho)
    _check_trace(float(m.trace().real))
    value = complex(np.vdot(v, m @ v))
    if abs(value.imag) >= IMAG_TOL:
        raise ArithmeticError(f"fidelity came out non-real: {value!r}")
    return min(max(value.real, 0.0), 1.0)
