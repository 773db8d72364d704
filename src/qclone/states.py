"""Two-qubit state constructors: Bell basis and the psi-minus family.

Computational basis order is fixed as (|00>, |01>, |10>, |11>); the Bell
basis order is fixed as (phi_plus, phi_minus, psi_plus, psi_minus).
"""

from __future__ import annotations

import math

import numpy as np

from .qmath import as_state_vector

BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: rows are the four Bell vectors in BELL_ORDER over the computational basis.
BELL_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=np.complex128,
) * _INV_SQRT2


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


def psi_minus_family(alpha: float) -> np.ndarray:
    """alpha|01> - sqrt(1-alpha^2)|10>, the family all sweeps are built on.

    alpha must lie in [0, 1]; alpha = 1/sqrt(2) gives the psi_minus Bell state.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = math.sqrt(1.0 - alpha * alpha)
    return np.array([0.0, alpha, -beta, 0.0], dtype=np.complex128)


def to_bell_basis(state) -> np.ndarray:
    """Bell-basis amplitudes of a normalized computational-basis vector."""
    v = as_state_vector(state, 4)
    return BELL_MATRIX.conj() @ v


def density_of(state) -> np.ndarray:
    """Rank-1 projector |state><state| of a normalized pure state."""
    v = as_state_vector(state, 4)
    return np.outer(v, v.conj())

