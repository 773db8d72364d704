"""Closed forms the tests check the library against: the Bell states by
name, either clone of alpha|01> - beta|10> written out entry by entry, the
concurrence of an X-shaped density matrix, the PSD eigen-factor that
``entanglement.concurrence`` forms inline, as a layer of its own, and the
alpha mean in the angle variable that ``analysis.family_mean`` replaced."""

import functools
import math

import numpy as np

from qclone.analysis import GL_ORDER, GL_ROUNDOFF, QuadratureResult, _wootters_eof
from qclone.entanglement import _check_trace
from qclone.qmath import (
    EIG_ROUNDOFF_NEG,
    SQRT_ZERO_FLOOR,
    NotPSDError,
    _as_matrix4,
    hermitian_eigen,
)
from qclone.states import BELL_MATRIX

#: names of the rows of ``qclone.states.BELL_MATRIX``.
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
#: entries outside the diagonal and anti-diagonal must stay below this for
#: the X-state closed form to apply.
XSTATE_TOL = 1e-12
#: entries that must vanish in an X-shaped density matrix: all but the
#: diagonal and the anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
#: guaranteed residual of psd_factor: max entry of |F@F^dag - a|.
SQRT_RESIDUAL_TOL = 1e-9


class NotXStateError(ValueError):
    """Raised when the X-state closed form is applied off-pattern."""


def bell_state(which: str) -> np.ndarray:
    """One of the four Bell states as a computational-basis vector.

    phi_plus  = (|00> + |11>)/sqrt(2)
    phi_minus = (|00> - |11>)/sqrt(2)
    psi_plus  = (|01> + |10>)/sqrt(2)
    psi_minus = (|01> - |10>)/sqrt(2)
    """
    if which not in BELL_ORDER:
        raise ValueError(f"which must be one of {BELL_ORDER}, got {which!r}")
    return BELL_MATRIX[BELL_ORDER.index(which)].copy()


def wzcm_clone_closed(alpha: float) -> np.ndarray:
    """Closed form of either WZCM clone of alpha|01> - beta|10>.

    Diagonal 1/2 on |01> and |10>, off-diagonal -alpha*beta between them.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = math.sqrt(1.0 - alpha * alpha)
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5
    rho[1, 2] = -alpha * beta
    rho[2, 1] = -alpha * beta
    return rho


def acm_clone_closed(alpha: float, s: float) -> np.ndarray:
    """Closed form of the shrink-s ACM clone of alpha|01> - beta|10>."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s!r}")
    beta = math.sqrt(1.0 - alpha * alpha)
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = (1.0 - s) / 4.0
    rho[3, 3] = (1.0 - s) / 4.0
    rho[1, 1] = ((4.0 * alpha * alpha - 1.0) * s + 1.0) / 4.0
    rho[2, 2] = ((4.0 * beta * beta - 1.0) * s + 1.0) / 4.0
    rho[1, 2] = -s * alpha * beta
    rho[2, 1] = -s * alpha * beta
    return rho


def concurrence_xstate(rho) -> float:
    """Closed-form concurrence of an X-shaped density matrix.

    2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22))
    with indices over (|00>, |01>, |10>, |11>).  Raises NotXStateError when
    any off-pattern entry reaches XSTATE_TOL, and NotNormalizedError when
    the trace is off 1 by more than TRACE_TOL.
    """
    m = _as_matrix4(rho)
    _check_trace(float(m.trace().real))
    # argwhere lists the offending entries in row-major order
    off = np.argwhere(_OFF_X & (np.abs(m) >= XSTATE_TOL))
    if off.size:
        i, j = off[0].tolist()
        raise NotXStateError(f"entry ({i}, {j}) = {m[i, j]!r} breaks the X pattern")
    d = [max(float(m[i, i].real), 0.0) for i in range(4)]
    inner = abs(m[1, 2]) - math.sqrt(d[0] * d[3])
    outer = abs(m[0, 3]) - math.sqrt(d[1] * d[2])
    return 2.0 * max(0.0, inner, outer)


def psd_factor(a) -> np.ndarray:
    """Eigen-factor F = V sqrt(w) of a PSD Hermitian matrix, so F F^dag = a,
    with its columns in descending order of w.

    Eigenvalues in (-EIG_ROUNDOFF_NEG, SQRT_ZERO_FLOOR * max|eigenvalue|]
    are set to zero before the square root; anything below
    -EIG_ROUNDOFF_NEG raises NotPSDError.
    """
    values, vectors = hermitian_eigen(a)
    w = values.tolist()
    if w[-1] < -EIG_ROUNDOFF_NEG:
        raise NotPSDError(f"eigenvalue {w[-1]!r} below the -{EIG_ROUNDOFF_NEG:g} roundoff floor")
    floor = SQRT_ZERO_FLOOR * max(w[0], -w[-1])
    return vectors * [math.sqrt(x) if x > floor else 0.0 for x in w]


@functools.cache
def _theta_gl_rules(n: int) -> tuple[np.ndarray, np.ndarray]:
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


def theta_family_mean(s) -> QuadratureResult:
    """The alpha mean of ``family_mean`` by the substitution alpha = sin(theta),
    for shrinks already in [0, 1], with no tolerance check.

    C = max(0, s sin(2 theta) - (1-s)/2) is nonzero only between the kink
    theta1 = asin((1-s)/(2s))/2 and its mirror pi/2 - theta1 (none for
    s <= 1/3).  C is symmetric about pi/4, so the two halves fold into one
    integral of E (cos + sin) over [theta1, pi/4]; theta = theta1 + h u^2
    smooths the C^2 log C start at the kink.  The n- and 2n-point rules
    (n = GL_ORDER) give the value and |Q_2n - Q_n| + GL_ROUNDOFF.
    """
    s = np.asarray(s, dtype=float)
    col = s.reshape(-1, 1)
    # k >= 1, so theta1 = pi/4 and h = 0, for every s <= 1/3
    k = np.minimum((1.0 - col) / np.maximum(2.0 * col, 2.0 / 3.0), 1.0)
    theta1 = 0.5 * np.arcsin(k)
    h = 0.25 * np.pi - theta1
    u2, w = _theta_gl_rules(GL_ORDER)
    theta = theta1 + h * u2
    c = np.minimum(np.maximum(col * np.sin(2.0 * theta) - (1.0 - col) / 2.0, 0.0), 1.0)
    # cos + sin = sqrt(2) sin(theta + pi/4)
    q = np.einsum("ij,jk->ik", _wootters_eof(c) * np.sin(theta + 0.25 * np.pi), w)
    q *= math.sqrt(2.0) * h
    value = q[:, 1].reshape(s.shape)
    err = (np.abs(q[:, 1] - q[:, 0]) + GL_ROUNDOFF).reshape(s.shape)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=u2.size * col.shape[0])
