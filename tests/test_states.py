"""Bell basis construction, family states and density-matrix validation."""

import numpy as np
import pytest

from qclone.states import (
    BELL_MATRIX,
    BELL_ORDER,
    bell_state,
    density_of,
    psi_minus_family,
    to_bell_basis,
)

from density_check import assert_density_matrix


def test_orders():
    assert BELL_ORDER == ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


def test_bell_states_orthonormal():
    gram = BELL_MATRIX @ BELL_MATRIX.conj().T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_bell_state_components():
    r2 = np.sqrt(2.0)
    assert np.allclose(bell_state("phi_plus"), [1 / r2, 0, 0, 1 / r2])
    assert np.allclose(bell_state("phi_minus"), [1 / r2, 0, 0, -1 / r2])
    assert np.allclose(bell_state("psi_plus"), [0, 1 / r2, 1 / r2, 0])
    assert np.allclose(bell_state("psi_minus"), [0, 1 / r2, -1 / r2, 0])


def test_bell_state_returns_copy():
    v = bell_state("phi_plus")
    v[0] = 0.0
    assert bell_state("phi_plus")[0] != 0.0


def test_bell_state_rejects_unknown_name():
    with pytest.raises(ValueError):
        bell_state("psi_zero")


def test_family_normalized_across_alpha():
    for alpha in np.linspace(0.0, 1.0, 41):
        v = psi_minus_family(alpha)
        assert abs(np.vdot(v, v).real - 1.0) < 1e-14


def test_family_recovers_bell_state_at_midpoint():
    a = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(psi_minus_family(a) - bell_state("psi_minus"))) < 1e-14


def test_psi_minus_family_components():
    alpha = 0.6
    beta = 0.8
    v = psi_minus_family(alpha)
    assert np.allclose(v, [0, alpha, -beta, 0])


def test_family_endpoints_are_product_states():
    assert np.allclose(psi_minus_family(0.0), [0, 0, -1, 0])
    assert np.allclose(psi_minus_family(1.0), [0, 1, 0, 0])


def test_family_rejects_alpha_outside_unit_interval():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            psi_minus_family(bad)


def test_bell_basis_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        coeffs = to_bell_basis(v)
        back = BELL_MATRIX.T @ coeffs
        assert np.max(np.abs(back - v)) < 1e-14
        assert abs(np.vdot(coeffs, coeffs).real - 1.0) < 1e-13


def test_bell_coefficients_of_family_state():
    alpha = 0.3
    beta = np.sqrt(1 - alpha**2)
    c = to_bell_basis(psi_minus_family(alpha))
    r2 = np.sqrt(2.0)
    # alpha|01> - beta|10> splits over psi_plus and psi_minus
    assert abs(c[0]) < 1e-15 and abs(c[1]) < 1e-15
    assert abs(c[2] - (alpha - beta) / r2) < 1e-15
    assert abs(c[3] - (alpha + beta) / r2) < 1e-15


def test_density_of_is_valid_projector():
    v = psi_minus_family(0.42)
    rho = density_of(v)
    assert_density_matrix(rho)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-14


def test_assert_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assert_density_matrix(np.eye(4, dtype=np.complex128))  # trace 4
    skew = np.eye(4, dtype=np.complex128) / 4.0
    skew[0, 1] = 0.2
    with pytest.raises(ValueError):
        assert_density_matrix(skew)
    neg = np.diag([0.6, 0.5, 0.0, -0.1]).astype(np.complex128)
    with pytest.raises(ValueError):
        assert_density_matrix(neg)
    # same matrix passes when the spectrum check is waived
    assert_density_matrix(neg, check_psd=False)
