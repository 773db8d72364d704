"""Two-qubit states: the Bell basis and the psi-minus family.

Computational basis order is fixed as (|00>, |01>, |10>, |11>).
"""

from __future__ import annotations

import math

import numpy as np

from ._constants import check_unit

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: rows are the four Bell vectors, in the order phi_plus, phi_minus,
#: psi_plus, psi_minus, over the computational basis.
BELL_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
    ],
    dtype=np.complex128,
) * _INV_SQRT2


def psi_minus_family(alpha: float) -> np.ndarray:
    """alpha|01> - sqrt(1-alpha^2)|10>, the family all sweeps are built on.

    alpha must lie in [0, 1]; alpha = 1/sqrt(2) gives the psi_minus Bell state.
    """
    check_unit("alpha", alpha)
    beta = math.sqrt(1.0 - alpha * alpha)
    return np.array([0.0, alpha, -beta, 0.0], dtype=np.complex128)
