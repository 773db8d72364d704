"""Density-matrix validation shared by the tests."""

import numpy as np

from qclone.entanglement import TRACE_TOL
from qclone.qmath import HERMITICITY_TOL, hermitian_eigen

#: density-matrix eigenvalues may dip this far below zero before the
#: matrix stops counting as a state.
DENSITY_EIG_FLOOR = -1e-9


def assert_density_matrix(rho: np.ndarray, *, check_psd: bool = True) -> None:
    """Raise ValueError unless rho is a valid two-qubit density matrix.

    Checks Hermiticity (HERMITICITY_TOL), unit trace (TRACE_TOL) and,
    optionally, eigenvalues >= DENSITY_EIG_FLOOR.
    """
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if float(np.abs(m - m.conj().T).max()) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    if check_psd:
        values, _ = hermitian_eigen(m)
        if values[-1] < DENSITY_EIG_FLOOR:
            raise ValueError(f"density matrix eigenvalue {values[-1]!r} below floor")
