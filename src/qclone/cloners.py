"""The three cloning machines, and the one table of what each does.

* wzcm -- the extended Wootters-Zurek machine, which copies the four Bell
  states perfectly and an arbitrary two-qubit input as the Bell-diagonal
  mixture of its Bell components.
* scm -- the symmetric universal cloner producing M identical copies.
* acm -- the asymmetric universal cloner producing two copies with
  independent shrinks (s1, s2) restricted by
  4(1-s1-s2)^2 - (1-s1)(1-s2) <= 0 (the ``acm_*`` region functions).

:func:`family_shrink` is the table: the shrink s of one copy of the family
alpha|01> - beta|10>, whose concurrence is max(0, 2 s alpha beta - (1-s)/2).
:func:`clone` builds one copy of any pure input, as a 4x4 density matrix
over the computational basis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qmath import as_state_vector
from .states import BELL_MATRIX

#: the machines of the table, in the order the CLI offers them.
MACHINES = ("wzcm", "scm", "acm")

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


def _in_unit_interval(x: np.ndarray) -> bool:
    """Whether every entry of the float array ``x`` (0-d included) lies in
    [0, 1], by two reductions: a NaN fails, an empty array passes."""
    return not x.size or bool(x.min() >= 0.0 and x.max() <= 1.0)


class ConstraintViolatedError(ValueError):
    """Raised when a shrink-factor pair falls outside the allowed region."""


# a typing.NamedTuple body may not define __new__, so ShrinkParams checks
# its bounds in a subclass of this one
class _ShrinkPair(NamedTuple):
    s1: float
    s2: float


class ShrinkParams(_ShrinkPair):
    """Shrink-factor pair (s1, s2) of the asymmetric cloner.

    A named tuple, read by field or by position.  Construction only checks
    the [0, 1] bounds, on every path: the constructor, ``_make`` and
    ``_replace``, which calls ``_make``.  Region membership,
    ``acm_region_value(s1, s2) <= CONSTRAINT_SLACK``, is checked separately,
    so that out-of-region pairs can be represented (e.g. as grid points to
    be marked excluded).
    """

    __slots__ = ()

    def __new__(cls, s1: float, s2: float):
        for name, s in (("s1", s1), ("s2", s2)):
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {s!r}")
        return super().__new__(cls, s1, s2)

    @classmethod
    def _make(cls, iterable):
        # the inherited _make builds the tuple without calling __new__
        return cls(*iterable)


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


def wzcm_full_output(bell_coeffs) -> np.ndarray:
    """Joint pure output sum_i c_i |bell_i>|bell_i>|w_i> as a 64-vector.

    The machine states |w_i> are the four orthonormal basis vectors of the
    4-dimensional ancilla; factor order is (pair 1) x (pair 2) x (machine).
    """
    return _WZCM_ISOMETRY @ as_state_vector(bell_coeffs, 4)


def family_shrink(machine: str, clones: int | None = None, s: float | None = None) -> float:
    """Shrink of one copy of the family under ``machine``.

    scm shrinks each of its M = ``clones`` copies (2 when None) by
    (M+4)/(5M), and an acm copy by its own ``s``, which must be given and
    lie in [0, 1].  The wzcm copy is no shrink of the input but a mixture
    of its two Bell components with the concurrence 2 alpha beta of the
    input, which is the concurrence at s = 1.
    """
    if machine == "wzcm":
        return 1.0
    if machine == "scm":
        count = 2 if clones is None else clones
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
            raise ValueError(f"clone count must be an integer, got {count!r}")
        if count < 2:
            raise ValueError(f"clone count must be at least 2, got {count}")
        return (count + 4) / (5 * count)
    if machine == "acm":
        if s is None or not 0.0 <= s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {s!r}")
        return s
    raise ValueError(f"machine must be one of {MACHINES}, got {machine!r}")


def clone(state, machine: str, clones: int | None = None, s: float | None = None) -> np.ndarray:
    """One copy of the pure two-qubit ``state`` made by ``machine``.

    wzcm copies the state's Bell components c_i as the mixture
    sum_i |c_i|^2 |bell_i><bell_i|; scm and acm give the isotropic shrink
    s |state><state| + (1-s)/4 I with s = ``family_shrink(machine, clones, s)``.
    """
    v = as_state_vector(state, 4)
    if machine == "wzcm":
        c = BELL_MATRIX.conj() @ v
        rho = np.zeros((4, 4), dtype=np.complex128)
        for w, proj in zip((c.conj() * c).real, _BELL_PROJECTORS):
            if w != 0.0:
                rho = rho + w * proj
        return rho
    s = family_shrink(machine, clones, s)
    return s * np.outer(v, v.conj()) + ((1.0 - s) / 4.0) * _IDENTITY4


def _acm_boundary_s2(s1, branch: str):
    """acm_boundary_s2 without its checks, for a float array ``s1`` already
    in [0, 1] and a ``branch`` from BRANCHES; 0-d in, numpy scalar out."""
    disc = 1.0 + 14.0 * s1 - 15.0 * s1 * s1
    root = np.sqrt(np.maximum(disc, 0.0))
    if branch == "upper":
        return (7.0 * (1.0 - s1) + root) / 8.0
    return (7.0 * (1.0 - s1) - root) / 8.0


def acm_boundary_s2(s1, branch: str = "upper"):
    """s2 on the boundary curve of the allowed region at a given s1.

    The two solutions of 4(1-s1-s2)^2 = (1-s1)(1-s2) are
    s2 = (7(1-s1) +- sqrt(1 + 14 s1 - 15 s1^2)) / 8; ``branch`` picks the
    sign.  The upper branch runs from (0, 1) to (1, 0) through (3/5, 3/5).
    A float s1 gives a float; an array gives the array of its s2 values.
    The discriminant (1 - s1)(1 + 15 s1) is >= 0 on [0, 1]; the clamp at 0
    only absorbs rounding.  This is the branch and range checks followed
    by :func:`_acm_boundary_s2`, which the figure commands call directly
    on the grids they build.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    s = np.asarray(s1, dtype=float)
    if not _in_unit_interval(s):
        raise ValueError(f"s1 must lie in [0, 1], got {s1!r}")
    s2 = _acm_boundary_s2(s, branch)
    return float(s2) if s2.ndim == 0 else s2
