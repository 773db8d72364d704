"""The direct LAPACK gufunc calls against numpy's public wrappers, and
concurrence against the layered route.

``qmath.hermitian_eigen`` calls ``eigh_lo`` and ``entanglement.concurrence``
calls ``svd`` from ``numpy.linalg._umath_linalg``: the gufuncs that
``np.linalg.eigh`` and ``np.linalg.svd(compute_uv=False)`` wrap.  Leaving
the wrapper out must not move a bit: eigenvalues and eigenvectors are
compared exactly with ``np.linalg.eigh`` of the symmetrized input.

``concurrence`` makes one ``hermitian_eigen`` call and one SVD and forms
the eigen-factor inline.  Its C, EoF and l_i must have the bits of the
layered route: ``psd_factor`` of ``tests/closed_forms.py`` and
``np.linalg.svd``, with the same floors.  Both tests run on the seeded and
golden states, on 1000 dense states, on states skewed just inside the
Hermiticity tolerance and on states with an eigenvalue a few ulps from the
zero floor.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from qclone import _commands, cli
from qclone.entanglement import _FLIP_SIGNS, _check_trace, concurrence, eof_from_concurrence
from qclone.qmath import HERMITICITY_TOL, SQRT_ZERO_FLOOR, hermitian_eigen
from qclone.states import psi_minus_family

from closed_forms import psd_factor

GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense(rng, rank):
    v = unitary(rng, 4)[:, :rank]
    return (v * rng.dirichlet(np.ones(rank))) @ v.conj().T


def xstate(rng):
    a, b, c, d = rng.dirichlet(np.ones(4))
    rho = np.diag([a, b, c, d]).astype(np.complex128)
    rho[1, 2] = math.sqrt(b * c) * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    rho[0, 3] = math.sqrt(a * d) * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    rho[2, 1], rho[3, 0] = rho[1, 2].conjugate(), rho[0, 3].conjugate()
    return rho


def werner(rng, rotate):
    # p around the separability edge 1/3, and local unitaries that hide the X shape
    p = 1.0 / 3.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -0.5)
    singlet = psi_minus_family(1.0 / math.sqrt(2.0))
    rho = p * np.outer(singlet, singlet.conj()) + (1.0 - p) / 4.0 * np.eye(4)
    if rotate:
        u = np.kron(unitary(rng, 2), unitary(rng, 2))
        rho = u @ rho @ u.conj().T
    return rho


def seeded_states():
    rng = np.random.default_rng(2020)
    states = [dense(rng, rank) for rank in (1, 2, 3, 4) for _ in range(50)]
    states += [xstate(rng) for _ in range(50)]
    states += [werner(rng, rotate=i % 2 == 1) for i in range(50)]
    return states


def golden_entangle_inputs():
    """The clone matrices that the golden ``entangle`` cases pass to concurrence."""
    cases = json.loads(GOLDEN.read_text())["cases"]
    argvs = [key.split() for key in cases if key.startswith("entangle ")]
    assert len(argvs) == 28
    return [_commands._clone_matrix(cli._parse(argv))[1] for argv in argvs]


STATES = seeded_states() + golden_entangle_inputs()


def skewed_states():
    """Dense states with one off-diagonal entry moved by 0.9 HERMITICITY_TOL:
    accepted, and symmetrized away before the solve."""
    rng = np.random.default_rng(2828)
    states = []
    for k in range(200):
        rho = dense(rng, 1 + k % 4)
        i, j = rng.choice(4, size=2, replace=False)
        rho[i, j] += 0.9 * HERMITICITY_TOL * np.exp(2j * np.pi * rng.uniform())
        states.append(rho)
    return states


def near_floor_states():
    """Unit-trace states with an eigenvalue t on the zero floor
    SQRT_ZERO_FLOOR * max|w| or 1 to 3 ulps either side of it.  t sits on
    the diagonal of a row and column that are otherwise 0, next to a 3x3
    block that holds the largest eigenvalue: diagonal, or dense of rank 1-3
    with t in the first or last row."""
    rng = np.random.default_rng(4096)
    states = []
    for n in range(48):
        diagonal = n % 2 == 1
        lone = (n // 2) % 4 if diagonal else 3 * ((n // 2) % 2)
        rest = [k for k in range(4) if k != lone]
        rho = np.zeros((4, 4), dtype=np.complex128)
        if diagonal:
            rho[rest, rest] = rng.dirichlet(np.ones(3))
        else:
            g = rng.normal(size=(3, 1 + n % 3)) + 1j * rng.normal(size=(3, 1 + n % 3))
            rho[np.ix_(rest, rest)] = g @ g.conj().T / np.sum(np.abs(g) ** 2)
        for t in ulps_around(SQRT_ZERO_FLOOR * hermitian_eigen(rho).values[0]):
            planted = rho.copy()
            planted[lone, lone] = t
            states.append(planted)
    return states


def ulps_around(x):
    """x and the 3 floats on either side of it, ascending."""
    below, above = [x], [x]
    for _ in range(3):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


#: the inputs on which hermitian_eigen and concurrence must give the bits
#: of np.linalg.eigh and of the layered route.
LAYERED_INPUTS = {
    "states": STATES,
    "dense": [dense(np.random.default_rng(1000 + k), 1 + k % 4) for k in range(1000)],
    "skewed": skewed_states(),
    "near_floor": near_floor_states(),
}


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["eigh_lo", "svd"])
def test_numpy_has_the_gufuncs(name):
    assert hasattr(_umath_linalg, name), (
        f"numpy {np.__version__} has no numpy.linalg._umath_linalg.{name}, which qclone "
        "calls in place of np.linalg.eigh / np.linalg.svd(compute_uv=False); "
        "qclone needs numpy>=2.0"
    )


@pytest.mark.parametrize("group", LAYERED_INPUTS)
def test_eigen_is_bit_identical_to_np_linalg_eigh(group):
    for rho in LAYERED_INPUTS[group]:
        values, vectors = hermitian_eigen(rho)
        skew = rho - rho.conj().T
        want_values, want_vectors = np.linalg.eigh(rho - 0.5 * skew)
        assert same_bits(values, want_values[::-1])
        assert same_bits(vectors, want_vectors[:, ::-1])


@pytest.mark.parametrize("group", LAYERED_INPUTS)
def test_lambdas_are_bit_identical_to_np_linalg_svd(group):
    # C, EoF and the l_i of concurrence against the layered route
    for rho in LAYERED_INPUTS[group]:
        factor = psd_factor(rho)
        _check_trace(float(np.vdot(factor, factor).real))
        l = np.linalg.svd((factor.T[:, ::-1] * _FLIP_SIGNS) @ factor, compute_uv=False).tolist()
        floor = SQRT_ZERO_FLOOR * l[0]
        lams = [x if x > floor else 0.0 for x in l]
        c = lams[0] - lams[1] - lams[2] - lams[3]
        c = min(c, 1.0) if c > floor else 0.0
        report = concurrence(rho)
        assert same_bits([report.concurrence, report.eof, *report.lambdas], [c, eof_from_concurrence(c), *lams])


def test_near_floor_states_straddle_the_floor():
    # the smallest eigenvalue the solve returns lies on either side of the
    # floor, so the bit-identity tests see both branches of it
    sides = set()
    for rho in LAYERED_INPUTS["near_floor"]:
        values = hermitian_eigen(rho).values.tolist()
        sides.add(values[3] > SQRT_ZERO_FLOOR * values[0])
    assert sides == {True, False}


def test_concurrence_makes_one_eigensolve_and_one_svd(monkeypatch):
    # and builds no np.errstate: both functions enter the one their
    # decorator made at import
    calls = []

    def spy(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr("qclone.qmath._umath_linalg.eigh_lo", spy("eigh_lo", _umath_linalg.eigh_lo))
    monkeypatch.setattr("qclone.entanglement._umath_linalg.svd", spy("svd", _umath_linalg.svd))
    monkeypatch.setattr("qclone.entanglement.hermitian_eigen", spy("hermitian_eigen", hermitian_eigen))
    monkeypatch.setattr("numpy.errstate", spy("errstate", np.errstate))
    for rho in STATES[::25]:
        calls.clear()
        concurrence(rho)
        assert calls == ["hermitian_eigen", "eigh_lo", "svd"]


def test_the_errstate_decorators_are_reentrant(monkeypatch):
    # each call enters its own errstate, so a call made inside another (or
    # on another thread) does not enter the same one twice
    eigh_lo, inner = _umath_linalg.eigh_lo, []

    def nested(a):
        monkeypatch.setattr("qclone.qmath._umath_linalg.eigh_lo", eigh_lo)
        inner.append(concurrence(np.eye(4) / 4.0))
        return eigh_lo(a)

    monkeypatch.setattr("qclone.qmath._umath_linalg.eigh_lo", nested)
    assert concurrence(np.eye(4) / 4.0) == inner[0]
