"""Dense complex linear algebra for two-qubit (4x4) operators.

Conventions shared by the whole package:

* matrices are 4x4 ``complex128`` numpy arrays,
* two-qubit state vectors are length-4 arrays over the computational
  basis in the fixed order (|00>, |01>, |10>, |11>),
* the tripartite vectors accepted by :func:`partial_trace` are length-64
  arrays with tensor-factor ordering (pair 1) x (pair 2) x (machine),
  i.e. component index ``i1*16 + i2*4 + im``.

Eigensolves go to LAPACK through ``eigh_lo``, the gufunc in
``numpy.linalg._umath_linalg`` that ``np.linalg.eigh`` wraps (numpy>=2.0).
:func:`hermitian_eigen` checks its input itself, and numpy's wrapper would
nearly double the cost of a 4x4 solve; its failure contract, NaN outputs
and the invalid flag, is checked here instead.  It is the one checked
solve: ``entanglement.concurrence`` calls it too.

Everything here is a pure function; nothing keeps state between calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

#: max entrywise |a - a^dag| accepted as "Hermitian".
HERMITICITY_TOL = 1e-10
#: max allowed |<v|v> - 1| for state vectors.
NORMALIZATION_TOL = 1e-9
#: eigenvalues in (-EIG_ROUNDOFF_NEG, 0) count as roundoff zeros; anything
#: more negative is a genuine violation, not noise.
EIG_ROUNDOFF_NEG = 1e-10
#: eigenvalues at or below this multiple of max|eigenvalue| are eigh's
#: backward-error noise on a zero eigenvalue (measured up to 2.7 eps on
#: rank-deficient densities, of either sign); entanglement.concurrence
#: treats them as exact zeros, and applies the same multiple of l1 to the
#: l_i and to C, whose rounding errors are of that size.
SQRT_ZERO_FLOOR = 16.0 * np.finfo(np.float64).eps


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


def _shape4(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def _as_matrix4(a) -> np.ndarray:
    m = _shape4(a)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def as_state_vector(vec, dim: int) -> np.ndarray:
    """Validate and return a normalized complex state vector of length dim.

    A NaN or Inf entry makes norm^2 NaN or Inf and fails the norm check,
    which then raises ValueError for it rather than NotNormalizedError.
    """
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if v.shape != (dim,):
        raise ValueError(f"expected a state vector of length {dim}, got {v.shape}")
    norm_sq = float(np.vdot(v, v).real)
    if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:
        if not np.isfinite(v).all():
            raise ValueError("state vector contains NaN or Inf entries")
        raise NotNormalizedError(f"state norm^2 = {norm_sq!r} differs from 1")
    return v


# a decorator, so the errstate is built once and not on every call; a
# real Inf on the diagonal gives Inf - Inf = NaN, which fails the check
# below, and a failed solve returns NaN outputs and raises the invalid
# flag; neither may warn
@np.errstate(all="ignore")
def hermitian_eigen(a) -> EigenResult:
    """Eigendecomposition of a Hermitian 4x4 matrix by LAPACK (the ``eigh_lo`` gufunc).

    The input is symmetrized before the solve, and LAPACK's ascending order
    is reversed to descending.

    Raises NotHermitianError if max |a - a^dag| exceeds HERMITICITY_TOL, and
    EigenConvergenceError if LAPACK reports that the solve did not converge.
    A NaN or Inf entry leaves one in a - a^dag and fails the same check,
    which then raises ValueError for it rather than NotHermitianError.
    """
    m = _shape4(a)
    skew = m - m.conj().T
    if not np.maximum.reduce(np.abs(skew), axis=None) <= HERMITICITY_TOL:
        _as_matrix4(m)  # raises ValueError on a NaN or Inf entry
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    values, vectors = _umath_linalg.eigh_lo(m - 0.5 * skew)
    # the gufunc fills every output of a failed solve with NaN
    if math.isnan(values[0]):
        raise EigenConvergenceError("Hermitian eigensolve failed: Eigenvalues did not converge")
    return EigenResult(values[::-1], vectors[:, ::-1])


#: axis order of the (pair 1, pair 2, machine) tensor with the kept factor first.
_TRACE_AXES = {"clone1": (0, 1, 2), "clone2": (1, 0, 2), "machine": (2, 0, 1)}


def partial_trace(state, subsystem: str) -> np.ndarray:
    """Reduced density matrix of one factor of a pure tripartite state.

    ``state`` is a normalized length-64 vector ordered as
    (pair 1) x (pair 2) x (machine); ``subsystem`` picks the factor to keep.
    With that factor's axis moved to the front, the state is a 4x16 matrix
    t, and the reduced matrix is t t^dag.
    """
    if subsystem not in _TRACE_AXES:
        raise ValueError(f"subsystem must be one of {tuple(_TRACE_AXES)}, got {subsystem!r}")
    v = as_state_vector(state, 64)
    t = v.reshape(4, 4, 4).transpose(_TRACE_AXES[subsystem]).reshape(4, 16)
    return t @ t.conj().T
