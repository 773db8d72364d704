"""The three deterministic cloning transformations.

* ``wzcm_*`` -- the extended Wootters-Zurek machine, which copies the four
  Bell states perfectly and an arbitrary two-qubit input as the Bell-diagonal
  mixture of its Bell components.
* ``scm_*`` -- the symmetric universal cloner producing M identical copies,
  each shrunk by s(M) = (M+4)/(5M).
* ``acm_*`` -- the asymmetric universal cloner producing two copies with
  independent shrink factors (s1, s2) restricted by
  4(1-s1-s2)^2 - (1-s1)(1-s2) <= 0.

Clone outputs are 4x4 density matrices over the computational basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import _shape4, as_state_vector
from .states import BELL_MATRIX, density_of, psi_minus_family, to_bell_basis

#: slack accepted when testing the asymmetric-cloner constraint.
CONSTRAINT_SLACK = 1e-12
#: |s - endpoint| below which a shrink pair counts as a degenerate endpoint.
DEGENERACY_TOL = 1e-12

BRANCHES = ("upper", "lower")

_IDENTITY4 = np.eye(4, dtype=np.complex128)
_BELL_PROJECTORS = tuple(np.outer(b, b.conj()) for b in BELL_MATRIX)
#: columns kron(kron(bell_i, bell_i), e_i): the joint wzcm output is this
#: (64, 4) isometry applied to the Bell amplitudes.  The columns have
#: disjoint supports (the machine factor e_i), so each output entry is one
#: product c_i * bell_i[j] * bell_i[k].
_WZCM_ISOMETRY = np.stack(
    [np.kron(np.kron(b, b), e) for b, e in zip(BELL_MATRIX, np.eye(4, dtype=np.complex128))],
    axis=1,
)


class ConstraintViolatedError(ValueError):
    """Raised when a shrink-factor pair falls outside the allowed region."""


@dataclass(frozen=True)
class ShrinkParams:
    """Shrink-factor pair (s1, s2) of the asymmetric cloner.

    Construction only checks the [0, 1] bounds.  Region membership,
    ``acm_region_value(s1, s2) <= CONSTRAINT_SLACK``, is checked separately,
    so that out-of-region pairs can be represented (e.g. as grid points to
    be marked excluded).
    """

    s1: float
    s2: float

    def __post_init__(self):
        for name, s in (("s1", self.s1), ("s2", self.s2)):
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {s!r}")


def acm_region_value(s1, s2):
    """4(1-s1-s2)^2 - (1-s1)(1-s2) elementwise; non-positive inside the region."""
    u = 1.0 - s1 - s2
    return 4.0 * u * u - (1.0 - s1) * (1.0 - s2)


def acm_degenerate(s1, s2):
    """Whether (s1, s2) sits at (1, 0) or (0, 1), elementwise over floats or arrays."""
    tol = DEGENERACY_TOL
    return ((abs(s1 - 1.0) <= tol) & (abs(s2) <= tol)) | (
        (abs(s1) <= tol) & (abs(s2 - 1.0) <= tol)
    )


def wzcm_clone(bell_coeffs) -> np.ndarray:
    """Reduced state of either copy produced from Bell amplitudes.

    Both clones equal sum_i |c_i|^2 |bell_i><bell_i|.  Complex amplitudes
    are accepted; only |c_i|^2 enters.
    """
    c = as_state_vector(bell_coeffs, 4)
    weights = (c.conj() * c).real
    rho = np.zeros((4, 4), dtype=np.complex128)
    for w, proj in zip(weights, _BELL_PROJECTORS):
        if w != 0.0:
            rho = rho + w * proj
    return rho


def wzcm_full_output(bell_coeffs) -> np.ndarray:
    """Joint pure output sum_i c_i |bell_i>|bell_i>|w_i> as a 64-vector.

    The machine states |w_i> are the four orthonormal basis vectors of the
    4-dimensional ancilla; factor order is (pair 1) x (pair 2) x (machine).
    """
    return _WZCM_ISOMETRY @ as_state_vector(bell_coeffs, 4)


def scm_shrink_factor(count: int) -> float:
    """Shrink factor (M+4)/(5M) of the symmetric M-copy cloner."""
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise ValueError(f"clone count must be an integer, got {count!r}")
    if count < 2:
        raise ValueError(f"clone count must be at least 2, got {count}")
    return (count + 4) / (5 * count)


def shrink_map(rho: np.ndarray, s: float) -> np.ndarray:
    """Isotropic shrink s*rho + (1-s)/4 * I of a two-qubit density matrix."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"shrink factor must lie in [0, 1], got {s!r}")
    return s * _shape4(rho) + ((1.0 - s) / 4.0) * _IDENTITY4


def scm_clone(state, count: int = 2) -> np.ndarray:
    """Single-copy output of the symmetric M-copy cloner on a pure input."""
    return shrink_map(density_of(state), scm_shrink_factor(count))


def acm_clone(state, s: float) -> np.ndarray:
    """One copy of the asymmetric cloner: the input shrunk by factor s."""
    return shrink_map(density_of(state), s)


def acm_boundary_s2(s1, branch: str = "upper"):
    """s2 on the boundary curve of the allowed region at a given s1.

    The two solutions of 4(1-s1-s2)^2 = (1-s1)(1-s2) are
    s2 = (7(1-s1) +- sqrt(1 + 14 s1 - 15 s1^2)) / 8; ``branch`` picks the
    sign.  The upper branch runs from (0, 1) to (1, 0) through (3/5, 3/5).
    A float s1 gives a float; an array gives the array of its s2 values.
    The discriminant (1 - s1)(1 + 15 s1) is >= 0 on [0, 1]; the clamp at 0
    only absorbs rounding.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    s = np.asarray(s1, dtype=float)
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise ValueError(f"s1 must lie in [0, 1], got {s1!r}")
    disc = 1.0 + 14.0 * s - 15.0 * s * s
    root = np.sqrt(np.maximum(disc, 0.0))
    if branch == "upper":
        s2 = (7.0 * (1.0 - s) + root) / 8.0
    else:
        s2 = (7.0 * (1.0 - s) - root) / 8.0
    return float(s2) if s2.ndim == 0 else s2


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


def scm_clone_closed(alpha: float) -> np.ndarray:
    """Closed form of an SCM (M=2) clone of alpha|01> - beta|10>."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    beta = math.sqrt(1.0 - alpha * alpha)
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = 0.1
    rho[3, 3] = 0.1
    rho[1, 1] = (6.0 * alpha * alpha + 1.0) / 10.0
    rho[2, 2] = (6.0 * beta * beta + 1.0) / 10.0
    rho[1, 2] = -3.0 * alpha * beta / 5.0
    rho[2, 1] = -3.0 * alpha * beta / 5.0
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


def wzcm_family_clone(alpha: float) -> np.ndarray:
    """WZCM clone of psi_minus_family(alpha) through the generic pipeline."""
    return wzcm_clone(to_bell_basis(psi_minus_family(alpha)))
