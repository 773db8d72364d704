"""Dense complex linear algebra for two-qubit (4x4) operators.

Conventions shared by the whole package:

* matrices are 4x4 ``complex128`` numpy arrays,
* two-qubit state vectors are length-4 arrays over the computational
  basis in the fixed order (|00>, |01>, |10>, |11>),
* the tripartite vectors accepted by :func:`partial_trace` are length-64
  arrays with tensor-factor ordering (pair 1) x (pair 2) x (machine),
  i.e. component index ``i1*16 + i2*4 + im``.

Everything here is a pure function; nothing keeps state between calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: max entrywise |a - a^dag| accepted as "Hermitian".
HERMITICITY_TOL = 1e-10
#: max allowed |<v|v> - 1| for state vectors.
NORMALIZATION_TOL = 1e-9
#: off-diagonal Frobenius norm at which Jacobi sweeps stop.
JACOBI_OFF_TOL = 1e-14
#: hard cap on Jacobi sweeps (a 4x4 never gets near this in practice).
JACOBI_MAX_SWEEPS = 50
#: eigenvalues in (-EIG_ROUNDOFF_NEG, 0) count as roundoff zeros; anything
#: more negative is a genuine violation, not noise.
EIG_ROUNDOFF_NEG = 1e-10
#: guaranteed residual of matrix_sqrt_psd: max entry of |B@B - a|.
SQRT_RESIDUAL_TOL = 1e-9

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
    """Raised when a state vector's norm differs from 1 beyond tolerance."""


class EigenConvergenceError(RuntimeError):
    """Raised when Jacobi sweeps hit JACOBI_MAX_SWEEPS before converging."""


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


def _rotate(a: list, v: list, p: int, q: int) -> None:
    # One two-sided unitary Jacobi rotation zeroing a[p][q] (and a[q][p]).
    apq = a[p][q]
    r = abs(apq)
    if r == 0.0:
        # exact zeros are never touched, so exact sparsity patterns survive
        return
    phase = apq / r
    tau = (a[q][q].real - a[p][p].real) / (2.0 * r)
    if tau == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = c * t
    sp = s * phase
    spc = s * phase.conjugate()
    for i in range(4):
        aip = a[i][p]
        aiq = a[i][q]
        a[i][p] = c * aip - spc * aiq
        a[i][q] = sp * aip + c * aiq
    for j in range(4):
        apj = a[p][j]
        aqj = a[q][j]
        a[p][j] = c * apj - sp * aqj
        a[q][j] = spc * apj + c * aqj
    for i in range(4):
        vip = v[i][p]
        viq = v[i][q]
        v[i][p] = c * vip - spc * viq
        v[i][q] = sp * vip + c * viq


def hermitian_eigen(a) -> EigenResult:
    """Eigendecomposition of a Hermitian 4x4 matrix by cyclic Jacobi rotations.

    The fixed 4x4 size needs no general-purpose solver; plane rotations are
    unconditionally stable on Hermitian input.  Sweeps run in the cyclic
    order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) until the off-diagonal
    Frobenius norm drops below JACOBI_OFF_TOL.

    Raises NotHermitianError if max |a - a^dag| exceeds HERMITICITY_TOL, and
    EigenConvergenceError if the norm is still above JACOBI_OFF_TOL after
    JACOBI_MAX_SWEEPS sweeps.
    """
    m = _as_matrix4(a)
    if float(np.abs(m - m.conj().T).max()) > HERMITICITY_TOL:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    m = 0.5 * (m + m.conj().T)

    w = [[complex(m[i, j]) for j in range(4)] for i in range(4)]
    v = [[1.0 + 0.0j if i == j else 0.0 + 0.0j for j in range(4)] for i in range(4)]
    # pass JACOBI_MAX_SWEEPS + 1 measures the norm the last sweep left
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        off_sq = 0.0
        for p in range(3):
            row = w[p]
            for q in range(p + 1, 4):
                z = row[q]
                off_sq += z.real * z.real + z.imag * z.imag
        if math.sqrt(2.0 * off_sq) < JACOBI_OFF_TOL:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise EigenConvergenceError(
                f"off-diagonal norm {math.sqrt(2.0 * off_sq):g} still above "
                f"{JACOBI_OFF_TOL:g} after {JACOBI_MAX_SWEEPS} Jacobi sweeps"
            )
        for p in range(3):
            for q in range(p + 1, 4):
                _rotate(w, v, p, q)

    values = np.array([w[i][i].real for i in range(4)])
    vectors = np.array(v, dtype=np.complex128)
    order = np.argsort(-values, kind="stable")
    return EigenResult(values[order], vectors[:, order])


def matrix_sqrt_psd(a) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in (-EIG_ROUNDOFF_NEG, 0) are clamped to zero before the
    square root; anything more negative raises NotPSDError.
    """
    values, vectors = hermitian_eigen(a)
    if values[-1] < -EIG_ROUNDOFF_NEG:
        raise NotPSDError(
            f"eigenvalue {values[-1]!r} below the -{EIG_ROUNDOFF_NEG:g} roundoff floor"
        )
    roots = np.sqrt(np.clip(values, 0.0, None))
    b = (vectors * roots) @ vectors.conj().T
    return 0.5 * (b + b.conj().T)


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
