"""Eigensolver, PSD eigen-factor and partial trace against numpy and mpmath oracles."""

import mpmath
import numpy as np
import pytest

from qclone.entanglement import concurrence
from qclone.qmath import (
    EigenConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    SQRT_RESIDUAL_TOL,
    as_state_vector,
    hermitian_eigen,
    partial_trace,
    psd_factor,
)


def random_hermitian(rng, scale=1.0):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return scale * (g + g.conj().T) / 2.0


def random_density(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_eigen_matches_mpmath_on_random_hermitian():
    # an oracle that shares no code with LAPACK: mpmath's Hermitian
    # eigensolver at 30 significant digits; eigenvectors are compared as
    # projectors, which carry no phase
    rng = np.random.default_rng(7042)
    for _ in range(40):
        a = random_hermitian(rng)
        res = hermitian_eigen(a)
        with mpmath.workdps(30):
            values, vectors = mpmath.eighe(mpmath.matrix(a.tolist()))
            order = sorted(range(4), key=lambda k: values[k], reverse=True)
            want_values = np.array([float(values[k]) for k in order])
            want_vectors = np.array(
                [[complex(vectors[i, k]) for k in order] for i in range(4)]
            )
        assert np.max(np.abs(res.values - want_values)) <= 1e-12
        for k in range(4):
            got = np.outer(res.vectors[:, k], res.vectors[:, k].conj())
            want = np.outer(want_vectors[:, k], want_vectors[:, k].conj())
            assert np.max(np.abs(got - want)) <= 1e-12


def test_eigen_raises_when_eigh_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    a = random_hermitian(np.random.default_rng(3))
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        hermitian_eigen(a)
    with pytest.raises(EigenConvergenceError):
        psd_factor(np.eye(4, dtype=np.complex128))


def test_eigen_reconstruction_and_unitarity():
    rng = np.random.default_rng(11)
    eye = np.eye(4)
    for _ in range(200):
        a = random_hermitian(rng)
        values, vectors = hermitian_eigen(a)
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert np.max(np.abs(recon - a)) < 1e-12
        assert np.max(np.abs(vectors.conj().T @ vectors - eye)) < 1e-12


def test_eigen_values_sorted_descending():
    rng = np.random.default_rng(12)
    for _ in range(50):
        values = hermitian_eigen(random_hermitian(rng)).values
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_eigen_eigenpairs_satisfy_definition():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = random_hermitian(rng)
        values, vectors = hermitian_eigen(a)
        for i in range(4):
            assert np.max(np.abs(a @ vectors[:, i] - values[i] * vectors[:, i])) < 1e-11


def test_eigen_handles_degenerate_spectrum():
    # projector onto a 2d subspace: eigenvalues (1, 1, 0, 0)
    v1 = np.array([1, 0, 0, 1]) / np.sqrt(2)
    v2 = np.array([0, 1, -1, 0]) / np.sqrt(2)
    a = np.outer(v1, v1) + np.outer(v2, v2)
    values = hermitian_eigen(a.astype(np.complex128)).values
    assert np.allclose(values, [1, 1, 0, 0], atol=1e-13)


def test_eigen_diagonal_matrix_is_exact():
    a = np.diag([3.0, -1.0, 2.0, 0.5]).astype(np.complex128)
    values = hermitian_eigen(a).values
    assert list(values) == [3.0, 2.0, 0.5, -1.0]
    paired = np.diag([0.4, 0.1, 0.4, 0.1]).astype(np.complex128)
    assert np.allclose(hermitian_eigen(paired).values, [0.4, 0.4, 0.1, 0.1], atol=0)
    scalar = np.eye(4, dtype=np.complex128) / 4.0
    assert list(hermitian_eigen(scalar).values) == [0.25] * 4


def test_eigen_of_x_block_clone_matrix():
    # diag (0.1, 0.4, 0.4, 0.1) with -0.3 coupling the middle block:
    # the 2x2 block ((0.4, -0.3), (-0.3, 0.4)) contributes 0.7 and 0.1
    a = np.diag([0.1, 0.4, 0.4, 0.1]).astype(np.complex128)
    a[1, 2] = a[2, 1] = -0.3
    values = hermitian_eigen(a).values
    assert np.allclose(values, [0.7, 0.1, 0.1, 0.1], atol=1e-15)


def test_eigen_rejects_non_hermitian():
    a = np.eye(4, dtype=np.complex128)
    a[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        hermitian_eigen(a)


def test_eigen_rejects_wrong_shape_and_nonfinite():
    with pytest.raises(ValueError):
        hermitian_eigen(np.eye(3, dtype=np.complex128))
    bad = np.eye(4, dtype=np.complex128)
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        hermitian_eigen(bad)


def test_sqrt_squares_back():
    # F F^dag = rho, and F's columns are orthogonal: F^dag F = diag(w)
    rng = np.random.default_rng(21)
    for rank in (1, 2, 3, 4):
        for _ in range(100):
            rho = random_density(rng, rank)
            factor = psd_factor(rho)
            assert np.max(np.abs(factor @ factor.conj().T - rho)) < SQRT_RESIDUAL_TOL
            gram = factor.conj().T @ factor
            assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-14


def test_sqrt_of_projector_is_its_unit_vector():
    # the factor of |v><v| is v, up to a phase, in its first column and 0 elsewhere
    v = np.array([0.5, 0.5j, -0.5, 0.5]).astype(np.complex128)
    p = np.outer(v, v.conj())
    factor = psd_factor(p)
    assert np.max(np.abs(factor @ factor.conj().T - p)) < 1e-13
    assert abs(abs(np.vdot(v, factor[:, 0])) - 1.0) < 1e-13
    assert np.all(factor[:, 1:] == 0.0)


def test_sqrt_reference_values():
    eye = np.eye(4, dtype=np.complex128)
    factor = psd_factor(eye)
    assert np.max(np.abs(factor @ factor.conj().T - eye)) < 1e-14
    assert np.max(np.abs(factor.conj().T @ factor - eye)) < 1e-14
    # eigenvalues 9, 4, 1, 0 (over 14) on basis vectors 3, 0, 1, 2
    a = np.diag([4.0, 1.0, 0.0, 9.0]).astype(np.complex128) / 14.0
    want = np.zeros((4, 4))
    want[3, 0], want[0, 1], want[1, 2] = 3.0, 2.0, 1.0
    assert np.max(np.abs(np.abs(psd_factor(a)) - want / np.sqrt(14.0))) < 1e-14


def test_sqrt_rejects_indefinite():
    # the message prints the eigenvalue as a plain float
    a = np.diag([1.0, 1.0, 1.0, -0.1]).astype(np.complex128)
    with pytest.raises(NotPSDError, match=r"^eigenvalue -0\.1 below the -1e-10 roundoff floor$"):
        psd_factor(a)


def test_sqrt_tolerates_eigenvalue_roundoff():
    # a hair below zero is roundoff, not indefiniteness: its column is 0
    a = np.diag([1.0, 0.5, 0.25, -1e-12]).astype(np.complex128)
    factor = psd_factor(a)
    assert np.all(factor[:, 3] == 0.0)
    assert np.max(np.abs(factor @ factor.conj().T - a)) <= 1e-12


def brute_force_reduced(vec, keep):
    """Reduced density matrix via the full 64x64 outer product."""
    rho = np.outer(vec, vec.conj()).reshape(4, 4, 4, 4, 4, 4)
    if keep == 0:
        return np.einsum("ajkbjk->ab", rho)
    if keep == 1:
        return np.einsum("jakjbk->ab", rho)
    return np.einsum("jkajkb->ab", rho)


def test_partial_trace_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(25):
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        v /= np.linalg.norm(v)
        for keep, name in enumerate(("clone1", "clone2", "machine")):
            got = partial_trace(v, name)
            want = brute_force_reduced(v, keep)
            assert np.max(np.abs(got - want)) < 1e-13


def test_partial_trace_output_is_density():
    rng = np.random.default_rng(32)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    v /= np.linalg.norm(v)
    for name in ("clone1", "clone2", "machine"):
        red = partial_trace(v, name)
        assert abs(np.trace(red).real - 1.0) < 1e-12
        assert np.max(np.abs(red - red.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(red)[0] > -1e-12


def test_partial_trace_product_state_factorizes():
    a = np.array([1, 0, 0, 0], dtype=np.complex128)
    b = np.array([0, 1, 0, 0], dtype=np.complex128)
    c = np.array([0, 0, 1, 0], dtype=np.complex128)
    v = np.kron(np.kron(a, b), c)
    assert np.allclose(partial_trace(v, "clone1"), np.outer(a, a.conj()))
    assert np.allclose(partial_trace(v, "clone2"), np.outer(b, b.conj()))
    assert np.allclose(partial_trace(v, "machine"), np.outer(c, c.conj()))


def test_partial_trace_rejects_unknown_subsystem():
    v = np.zeros(64, dtype=np.complex128)
    v[0] = 1.0
    with pytest.raises(ValueError):
        partial_trace(v, "environment")


def test_as_state_vector_checks_norm_and_shape():
    good = np.array([1.0, 0.0, 0.0, 0.0])
    assert as_state_vector(good, 4).dtype == np.complex128
    with pytest.raises(NotNormalizedError):
        as_state_vector(good * 1.1, 4)
    with pytest.raises(ValueError):
        as_state_vector(good, 64)
    with pytest.raises(ValueError):
        as_state_vector(np.array([np.inf, 0, 0, 0]), 4)


# A NaN or Inf entry is caught by the Hermiticity check (matrices) or the
# norm check (vectors) the input needs anyway; the check that fails must
# still raise a plain ValueError naming NaN or Inf, not its own error.
NONFINITE_MATRIX_ENTRIES = {
    "nan_on_diagonal": ((2, 2), complex(np.nan, 0.0)),
    "inf_on_one_off_diagonal_side": ((0, 1), complex(np.inf, 0.0)),
    "imaginary_inf_on_diagonal": ((1, 1), complex(0.0, np.inf)),
    # inf - inf in m - m^dag is NaN, and must raise without a RuntimeWarning
    "inf_on_diagonal": ((3, 3), complex(np.inf, 0.0)),
}
NONFINITE_VECTOR_ENTRIES = {
    "nan": complex(np.nan, 0.0),
    "inf": complex(np.inf, 0.0),
    "imaginary_inf": complex(0.0, np.inf),
}
MATRIX_CHECKS = {
    "hermitian_eigen": hermitian_eigen,
    "psd_factor": psd_factor,
    "concurrence": concurrence,
}
VECTOR_CHECKS = {
    "as_state_vector": lambda v: as_state_vector(v, 64),
    "partial_trace_clone1": lambda v: partial_trace(v, "clone1"),
    "partial_trace_clone2": lambda v: partial_trace(v, "clone2"),
    "partial_trace_machine": lambda v: partial_trace(v, "machine"),
}


@pytest.mark.parametrize("check", MATRIX_CHECKS.values(), ids=MATRIX_CHECKS)
@pytest.mark.parametrize(
    "entry, value", NONFINITE_MATRIX_ENTRIES.values(), ids=NONFINITE_MATRIX_ENTRIES
)
def test_nonfinite_matrix_entry_raises_plain_value_error(check, entry, value):
    rho = random_density(np.random.default_rng(51), rank=2)
    rho[entry] = value
    with pytest.raises(ValueError, match="NaN or Inf") as info:
        check(rho)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("check", MATRIX_CHECKS.values(), ids=MATRIX_CHECKS)
def test_finite_skewed_matrix_still_raises_not_hermitian(check):
    rho = random_density(np.random.default_rng(52), rank=2)
    rho[0, 1] += 1e-6
    with pytest.raises(NotHermitianError) as info:
        check(rho)
    assert type(info.value) is NotHermitianError


@pytest.mark.parametrize("check", VECTOR_CHECKS.values(), ids=VECTOR_CHECKS)
@pytest.mark.parametrize("value", NONFINITE_VECTOR_ENTRIES.values(), ids=NONFINITE_VECTOR_ENTRIES)
def test_nonfinite_vector_entry_raises_plain_value_error(check, value):
    v = np.full(64, 0.125, dtype=np.complex128)
    v[37] = value
    with pytest.raises(ValueError, match="NaN or Inf") as info:
        check(v)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("check", VECTOR_CHECKS.values(), ids=VECTOR_CHECKS)
def test_vector_of_norm_squared_two_still_raises_not_normalized(check):
    v = np.full(64, 0.125 * np.sqrt(2.0), dtype=np.complex128)
    with pytest.raises(NotNormalizedError, match="norm\\^2 = 2") as info:
        check(v)
    assert type(info.value) is NotNormalizedError
