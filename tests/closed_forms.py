"""Closed forms the tests check the library against: the Bell states by
name, and either clone of alpha|01> - beta|10> written out entry by entry."""

import math

import numpy as np

from qclone.states import BELL_MATRIX

#: names of the rows of ``qclone.states.BELL_MATRIX``.
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


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
