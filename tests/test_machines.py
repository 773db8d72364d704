"""The machine table against explicit cloning machines.

``cloners.family_shrink`` states each machine as one shrink per copy:
(M+4)/(5M) for scm and the pair (s1, s2) on the region for acm.  Here both
come out of the machines themselves, built as isometries on a pure input
of dimension d = 4 (one qubit pair) from ``itertools.permutations`` and
``np.eye``, and reduced to one copy by the t t^dag contraction that
``partial_trace`` makes:

* Werner's optimal 1 -> M cloner (PRA 58, 1827, 1998) maps rho to
  d/d[M] S_M (rho x I) S_M, with S_M the projector onto the symmetric
  subspace of M copies and d[M] = C(d+M-1, M) its dimension.
* Cerf's asymmetric cloner (PRL 84, 4497, 2000) sends |psi> to
  a |psi>_A |Phi+>_BR + b |Phi+>_AR |psi>_B, normalized when
  |a|^2 + |b|^2 + 2 Re(a b*)/d = 1; its copies are shrunk by
  s1 = 1 - |b|^2 and s2 = 1 - |a|^2, real a b > 0 lands on the upper
  boundary branch, a b < 0 on the lower one and a complex phase inside.
"""

import itertools
import math

import numpy as np
import pytest

from qclone.cloners import acm_boundary_s2, acm_region_value, clone
from qclone.qmath import partial_trace
from qclone.states import psi_minus_family

D = 4
#: inputs: the family, next to the singlet and at its ends, and random
#: complex pure states.
_RNG = np.random.default_rng(2024)
INPUTS = [psi_minus_family(alpha) for alpha in (0.0, 0.3, 1 / math.sqrt(2), 0.9, 1.0)] + [
    v / np.linalg.norm(v)
    for v in (_RNG.normal(size=D) + 1j * _RNG.normal(size=D) for _ in range(4))
]


def symmetrizer(m: int) -> np.ndarray:
    """Projector onto the symmetric subspace of m copies of C^4: the mean of
    the m! matrices that permute the copies."""
    eye = np.eye(D**m).reshape((D,) * m + (D**m,))
    perms = itertools.permutations(range(m))
    return sum(eye.transpose(*p, m).reshape(D**m, D**m) for p in perms) / math.factorial(m)


def werner_isometry(state, m: int) -> np.ndarray:
    """sqrt(d/d[m]) S_m (|state> x I): its columns, over an orthonormal basis of
    the other m-1 input slots, purify Werner's m-copy output."""
    factor = np.kron(np.asarray(state).reshape(D, 1), np.eye(D ** (m - 1)))
    return math.sqrt(D / math.comb(D + m - 1, m)) * symmetrizer(m) @ factor


def reduced(t: np.ndarray) -> np.ndarray:
    """t t^dag of a matrix whose rows are the kept factor."""
    return t @ t.conj().T


@pytest.mark.parametrize("m", [2, 3, 4])
def test_werner_copies_are_the_scm_shrink(m):
    for state in INPUTS:
        # rows: the m copies, the first one most significant
        out = werner_isometry(state, m)
        first = out.reshape(D, -1)
        last = np.moveaxis(out.reshape(D ** (m - 1), D, -1), 1, 0).reshape(D, -1)
        want = clone(state, "scm", m)
        for copy in (first, last):
            assert np.max(np.abs(reduced(copy) - want)) <= 1e-14


def cerf_output(state, a: complex, b: complex) -> np.ndarray:
    """a |state>_A |Phi+>_BR + b |Phi+>_AR |state>_B as a 64-vector over
    (A, B, R): the second term is the first with A and B swapped."""
    first = np.kron(state, np.eye(D).ravel() / math.sqrt(D)).reshape(D, D, D)
    return (a * first + b * first.transpose(1, 0, 2)).ravel()


def check_cerf_copies(a: complex, b: complex) -> tuple[float, float]:
    """Both copies of every input against the shrinks 1 - |b|^2 and
    1 - |a|^2; returns that pair."""
    s1, s2 = 1.0 - abs(b) ** 2, 1.0 - abs(a) ** 2
    for state in INPUTS:
        out = cerf_output(state, a, b)
        assert np.max(np.abs(partial_trace(out, "clone1") - clone(state, "acm", s=s1))) <= 1e-14
        # s2 drops below 0 where the lower branch leaves the unit square, so
        # the second copy is checked against s rho + (1-s)/4 I written out
        rho = np.outer(state, state.conj())
        want = s2 * rho + (1.0 - s2) / D * np.eye(D)
        assert np.max(np.abs(partial_trace(out, "clone2") - want)) <= 1e-14
    return s1, s2


def cerf_a(b_abs: float, cos_phase: float) -> float:
    """|a| >= 0 normalizing the machine, from |a|^2 + |b|^2 + 2 |a||b| cos/d = 1;
    real for |b| <= 1."""
    p = b_abs * cos_phase / D
    return -p + math.sqrt(p * p + 1.0 - b_abs * b_abs)


@pytest.mark.parametrize("branch, sign", [("upper", 1.0), ("lower", -1.0)])
def test_cerf_real_amplitudes_trace_the_boundary(branch, sign):
    for s1 in np.linspace(0.0, 1.0, 101).tolist():
        b = sign * math.sqrt(1.0 - s1)
        a = cerf_a(abs(b), sign)
        got_s1, s2 = check_cerf_copies(a, b)
        assert abs(got_s1 - s1) <= 1e-15
        assert abs(acm_boundary_s2(s1, branch) - s2) <= 1e-14, s1


def test_cerf_complex_phases_land_inside_the_region():
    rng = np.random.default_rng(4497)
    for _ in range(50):
        b_abs = math.sqrt(rng.uniform(0.0, 1.0))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        a = cerf_a(b_abs, math.cos(phase))
        s1, s2 = check_cerf_copies(a, b_abs * np.exp(1j * phase))
        assert acm_region_value(s1, s2) < 0.0
        assert acm_boundary_s2(s1, "lower") < s2 < acm_boundary_s2(s1, "upper")
