"""Dense complex linear algebra for two-qubit (4x4) operators.

Conventions shared by the whole package:

* matrices are 4x4 ``complex128`` numpy arrays,
* two-qubit state vectors are length-4 arrays over the computational
  basis in the fixed order (|00>, |01>, |10>, |11>),
* the tripartite vectors accepted by :func:`partial_trace` are length-64
  arrays with tensor-factor ordering (pair 1) x (pair 2) x (machine),
  i.e. component index ``i1*16 + i2*4 + im``.

Eigensolves go to LAPACK through numpy's ``eigh``.  Its zero eigenvalues
come back as noise of a few eps times max|eigenvalue|, of either sign, so
:func:`psd_factor` sets every eigenvalue at or below SQRT_ZERO_FLOOR
times max|eigenvalue| to 0 before the square root: the factor of a
rank-deficient matrix then has no ~1e-8 component off its range.

Everything here is a pure function; nothing keeps state between calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: max entrywise |a - a^dag| accepted as "Hermitian".
HERMITICITY_TOL = 1e-10
#: max allowed |<v|v> - 1| for state vectors.
NORMALIZATION_TOL = 1e-9
#: eigenvalues in (-EIG_ROUNDOFF_NEG, 0) count as roundoff zeros; anything
#: more negative is a genuine violation, not noise.
EIG_ROUNDOFF_NEG = 1e-10
#: guaranteed residual of psd_factor: max entry of |F@F^dag - a|.
SQRT_RESIDUAL_TOL = 1e-9
#: eigenvalues at or below this multiple of max|eigenvalue| are eigh's
#: backward-error noise on a zero eigenvalue (measured up to 2.7 eps on
#: rank-deficient densities); psd_factor treats them as exact zeros.
#: entanglement.concurrence applies the same multiple of l1 to the l_i and
#: to C, whose rounding errors are of that size.
SQRT_ZERO_FLOOR = 16.0 * np.finfo(np.float64).eps

#: subsystem labels accepted by partial_trace, in tensor-factor order.
SUBSYSTEMS = ("clone1", "clone2", "machine")


class NotHermitianError(ValueError):
    """Raised when an input expected to be Hermitian is not.

    Signals a caller bug rather than tolerable floating-point noise:
    asymmetry up to HERMITICITY_TOL is accepted and symmetrized away.
    """


class NotPSDError(ValueError):
    """Raised when a matrix has an eigenvalue below -EIG_ROUNDOFF_NEG."""


class NotNormalizedError(ValueError):
    """Raised when a state vector's norm or a density matrix's trace differs from 1."""


class EigenConvergenceError(RuntimeError):
    """Raised when LAPACK's Hermitian eigensolver fails to converge."""


class EigenResult(NamedTuple):
    """Eigendecomposition of a Hermitian 4x4 matrix.

    ``values`` are real and sorted descending; column k of ``vectors``
    is the unit eigenvector belonging to ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_matrix4(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_state_vector(vec, dim: int) -> np.ndarray:
    """Validate and return a normalized complex state vector of length dim."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"expected a state vector of length {dim}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("state vector contains NaN or Inf entries")
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"state norm^2 = {norm_sq!r} differs from 1")
    return v


def hermitian_eigen(a) -> EigenResult:
    """Eigendecomposition of a Hermitian 4x4 matrix by LAPACK (numpy ``eigh``).

    The input is symmetrized before the solve, and eigh's ascending order
    is reversed to descending.

    Raises NotHermitianError if max |a - a^dag| exceeds HERMITICITY_TOL, and
    EigenConvergenceError if LAPACK reports that the solve did not converge.
    """
    m = _as_matrix4(a)
    skew = m - m.conj().T
    if float(np.abs(skew).max()) > HERMITICITY_TOL:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    try:
        values, vectors = np.linalg.eigh(m - 0.5 * skew)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"Hermitian eigensolve failed: {exc}") from exc
    return EigenResult(values[::-1], vectors[:, ::-1])


def psd_factor(a) -> np.ndarray:
    """Eigen-factor F = V sqrt(w) of a PSD Hermitian matrix, so F F^dag = a.

    Eigenvalues in (-EIG_ROUNDOFF_NEG, SQRT_ZERO_FLOOR * max|eigenvalue|]
    are set to zero before the square root; anything below
    -EIG_ROUNDOFF_NEG raises NotPSDError.
    """
    values, vectors = hermitian_eigen(a)
    low = float(values[-1])
    if low < -EIG_ROUNDOFF_NEG:
        raise NotPSDError(f"eigenvalue {low!r} below the -{EIG_ROUNDOFF_NEG:g} roundoff floor")
    floor = SQRT_ZERO_FLOOR * max(values[0], -low)
    return vectors * np.sqrt(np.where(values > floor, values, 0.0))


_TRACE_SUBSCRIPTS = {
    "clone1": "ajk,bjk->ab",
    "clone2": "jak,jbk->ab",
    "machine": "jka,jkb->ab",
}


def partial_trace(state, subsystem: str) -> np.ndarray:
    """Reduced density matrix of one factor of a pure tripartite state.

    ``state`` is a normalized length-64 vector ordered as
    (pair 1) x (pair 2) x (machine); ``subsystem`` picks the factor to keep.
    """
    if subsystem not in _TRACE_SUBSCRIPTS:
        raise ValueError(f"subsystem must be one of {SUBSYSTEMS}, got {subsystem!r}")
    v = as_state_vector(state, 64)
    t = v.reshape(4, 4, 4)
    return np.einsum(_TRACE_SUBSCRIPTS[subsystem], t, t.conj())
