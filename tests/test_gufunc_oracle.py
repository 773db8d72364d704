"""The direct LAPACK gufunc calls against numpy's public wrappers.

``qmath.hermitian_eigen`` calls ``eigh_lo`` and ``entanglement.concurrence``
calls ``svd`` from ``numpy.linalg._umath_linalg``, the gufuncs that
``np.linalg.eigh`` and ``np.linalg.svd(compute_uv=False)`` wrap.  Leaving
the wrapper out must not move a bit: eigenvalues, eigenvectors and the
l_i are compared exactly with the same computation through ``np.linalg``.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from qclone import cli
from qclone.entanglement import _FLIP_SIGNS, concurrence
from qclone.qmath import SQRT_ZERO_FLOOR, hermitian_eigen, psd_factor
from qclone.states import density_of, psi_minus_family

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
    rho = p * density_of(psi_minus_family(1.0 / math.sqrt(2.0))) + (1.0 - p) / 4.0 * np.eye(4)
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
    return [cli._clone_matrix(cli._parse(argv))[1] for argv in argvs]


STATES = seeded_states() + golden_entangle_inputs()


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


def test_eigen_is_bit_identical_to_np_linalg_eigh():
    for rho in STATES:
        values, vectors = hermitian_eigen(rho)
        skew = rho - rho.conj().T
        want_values, want_vectors = np.linalg.eigh(rho - 0.5 * skew)
        assert same_bits(values, want_values[::-1])
        assert same_bits(vectors, want_vectors[:, ::-1])


def test_lambdas_are_bit_identical_to_np_linalg_svd():
    for rho in STATES:
        factor = psd_factor(rho)
        l = np.linalg.svd((factor.T[:, ::-1] * _FLIP_SIGNS) @ factor, compute_uv=False).tolist()
        floor = SQRT_ZERO_FLOOR * l[0]
        want = [x if x > floor else 0.0 for x in l]
        assert same_bits(concurrence(rho).lambdas, want)
