"""Cloning machines: closed forms, fidelities, shrink maps, region geometry."""

import math

import numpy as np
import pytest

from qclone.cloners import (
    ShrinkParams,
    acm_boundary_s2,
    acm_clone,
    acm_clone_closed,
    acm_constraint_satisfied,
    acm_degenerate,
    acm_region_value,
    scm_clone,
    scm_clone_closed,
    scm_shrink_factor,
    shrink_map,
    wzcm_clone,
    wzcm_clone_closed,
    wzcm_family_clone,
    wzcm_fidelity,
    wzcm_full_output,
)
from qclone.qmath import partial_trace
from qclone.states import (
    BELL_MATRIX,
    BELL_ORDER,
    bell_state,
    density_of,
    psi_minus_family,
    to_bell_basis,
)

from density_check import assert_density_matrix

ALPHAS = np.linspace(0.0, 1.0, 101)
SHRINKS = np.linspace(0.0, 1.0, 21)


def test_wzcm_closed_form_agreement():
    for alpha in ALPHAS:
        got = wzcm_family_clone(alpha)
        assert np.max(np.abs(got - wzcm_clone_closed(alpha))) <= 1e-12


def test_scm_closed_form_agreement():
    for alpha in ALPHAS:
        got = scm_clone(psi_minus_family(alpha), 2)
        assert np.max(np.abs(got - scm_clone_closed(alpha))) <= 1e-12


def test_acm_closed_form_agreement():
    for alpha in ALPHAS[::4]:
        state = psi_minus_family(alpha)
        for s in SHRINKS:
            got = acm_clone(state, s)
            assert np.max(np.abs(got - acm_clone_closed(alpha, s))) <= 1e-12


def test_clone_outputs_are_density_matrices():
    for alpha in (0.0, 0.3, 1 / math.sqrt(2), 0.9, 1.0):
        assert_density_matrix(wzcm_family_clone(alpha))
        assert_density_matrix(scm_clone(psi_minus_family(alpha), 2))
        assert_density_matrix(acm_clone(psi_minus_family(alpha), 0.7))


def test_wzcm_clones_bell_states_perfectly():
    for which in BELL_ORDER:
        coeffs = to_bell_basis(bell_state(which))
        assert abs(wzcm_fidelity(coeffs) - 1.0) < 1e-14
        rho = wzcm_clone(coeffs)
        assert np.max(np.abs(rho - density_of(bell_state(which)))) < 1e-14


def test_wzcm_minimal_fidelity_at_uniform_coefficients():
    # every sign pattern of (+-1/2, +-1/2, +-1/2, +-1/2) hits the floor 1/4
    for bits in range(16):
        coeffs = np.array([0.5 if bits >> i & 1 else -0.5 for i in range(4)])
        assert abs(wzcm_fidelity(coeffs) - 0.25) < 1e-14


def test_wzcm_fidelity_of_family_state():
    for alpha in ALPHAS:
        beta = math.sqrt(1 - alpha * alpha)
        coeffs = to_bell_basis(psi_minus_family(alpha))
        want = ((alpha - beta) ** 4 + (alpha + beta) ** 4) / 4.0
        assert abs(wzcm_fidelity(coeffs) - want) < 1e-13


def test_wzcm_full_output_traces_to_clone():
    for alpha in (0.2, 0.55, 0.8):
        coeffs = to_bell_basis(psi_minus_family(alpha))
        full = wzcm_full_output(coeffs)
        assert abs(np.vdot(full, full).real - 1.0) < 1e-13
        clone = wzcm_clone(coeffs)
        assert np.max(np.abs(partial_trace(full, "clone1") - clone)) < 1e-13
        assert np.max(np.abs(partial_trace(full, "clone2") - clone)) < 1e-13


def test_wzcm_full_output_equals_kron_sum_bitwise():
    # the isometry product against sum_i c_i kron(kron(bell_i, bell_i), e_i)
    # term by term: the supports are disjoint, so no sum rounds
    rng = np.random.default_rng(41)
    machine = np.eye(4, dtype=np.complex128)
    vectors = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(300)]
    vectors.append(np.array([0.0, 0.0, 0.0, 1.0]))
    for c in vectors:
        c = c / np.linalg.norm(c)
        want = np.zeros(64, dtype=np.complex128)
        for ci, b, e in zip(c, BELL_MATRIX, machine):
            want = want + ci * np.kron(np.kron(b, b), e)
        assert np.array_equal(wzcm_full_output(c), want)


def test_wzcm_uniform_amplitudes_give_maximally_mixed_clone():
    coeffs = np.full(4, 0.5)
    full = wzcm_full_output(coeffs)
    clone = partial_trace(full, "clone1")
    assert np.max(np.abs(clone - np.eye(4) / 4.0)) < 1e-13


def test_wzcm_machine_record_is_diagonal_in_weights():
    coeffs = to_bell_basis(psi_minus_family(0.35))
    weights = np.abs(coeffs) ** 2
    machine = partial_trace(wzcm_full_output(coeffs), "machine")
    assert np.max(np.abs(machine - np.diag(weights))) < 1e-13


def test_scm_shrink_factor_values():
    assert scm_shrink_factor(2) == 3 / 5
    assert scm_shrink_factor(5) == 9 / 25
    assert abs(scm_shrink_factor(10**6) - 0.2) < 1e-6  # -> 1/5 for many copies


def test_scm_shrink_factor_rejects_bad_counts():
    with pytest.raises(ValueError):
        scm_shrink_factor(1)
    with pytest.raises(ValueError):
        scm_shrink_factor(2.0)
    with pytest.raises(ValueError):
        scm_shrink_factor(True)


def test_shrink_map_limits():
    rho = density_of(psi_minus_family(0.6))
    assert np.array_equal(shrink_map(rho, 1.0), rho)
    assert np.max(np.abs(shrink_map(rho, 0.0) - np.eye(4) / 4.0)) < 1e-15
    mixed = shrink_map(rho, 0.5)
    assert abs(np.trace(mixed).real - 1.0) < 1e-14
    with pytest.raises(ValueError):
        shrink_map(rho, 1.2)


def test_acm_at_scm_shrink_is_bitwise_scm():
    for alpha in (0.0, 0.25, 1 / math.sqrt(2), 0.87, 1.0):
        state = psi_minus_family(alpha)
        assert np.array_equal(acm_clone(state, 3 / 5), scm_clone(state, 2))


def test_shrink_params_validation_and_constraint():
    with pytest.raises(ValueError):
        ShrinkParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        ShrinkParams(0.5, 1.01)
    p = ShrinkParams(0.5, 0.5)
    # 4(1-s1-s2)^2 - (1-s1)(1-s2) at the symmetric midpoint
    assert abs(acm_region_value(p.s1, p.s2) - (-0.25)) < 1e-15
    assert acm_constraint_satisfied(p)
    assert not acm_constraint_satisfied(ShrinkParams(0.9, 0.9))
    assert not acm_constraint_satisfied(ShrinkParams(0.0, 0.0))


def test_degenerate_endpoints():
    assert acm_degenerate(1.0, 0.0)
    assert acm_degenerate(0.0, 1.0)
    assert not acm_degenerate(0.6, 0.6)
    # the endpoints still satisfy the region constraint
    assert acm_constraint_satisfied(ShrinkParams(1.0, 0.0))
    assert acm_constraint_satisfied(ShrinkParams(0.0, 1.0))


def test_boundary_points_satisfy_constraint():
    # the floats just below 1, where the discriminant (1 - s1)(1 + 15 s1)
    # is a few eps and its rounding error of the same size
    near_one = [1.0]
    for _ in range(8):
        near_one.append(float(np.nextafter(near_one[-1], 0.0)))
    for s1 in [*np.linspace(0.0, 1.0, 101).tolist(), *near_one[1:]]:
        for branch in ("upper", "lower"):
            s2 = acm_boundary_s2(s1, branch)
            u = 1.0 - s1 - s2
            assert abs(4.0 * u * u - (1.0 - s1) * (1.0 - s2)) <= 1e-12


def test_lower_branch_leaves_the_square_past_three_quarters():
    # (4 s1 - 3)(s1 - 1) < 0 on (3/4, 1): the raw root drops below zero
    # there and callers clip it to the square edge
    assert acm_boundary_s2(0.9, "lower") < 0.0
    assert acm_boundary_s2(0.7, "lower") > 0.0


def test_boundary_reference_points():
    assert acm_boundary_s2(1.0, "upper") == 0.0
    assert acm_boundary_s2(0.0, "upper") == 1.0
    assert abs(acm_boundary_s2(3 / 5, "upper") - 3 / 5) <= 1e-12
    assert abs(acm_boundary_s2(0.0, "lower") - 0.75) < 1e-15
    assert acm_boundary_s2(1.0, "lower") == 0.0


def test_branches_meet_where_discriminant_vanishes():
    # 1 + 14 s1 - 15 s1^2 = 0 at s1 = 1; both branches give s2 = 0 there
    up = acm_boundary_s2(1.0, "upper")
    lo = acm_boundary_s2(1.0, "lower")
    assert up == lo == 0.0


def test_boundary_and_region_answer_arrays_elementwise():
    s1 = np.linspace(0.0, 1.0, 101)
    for branch in ("upper", "lower"):
        got = acm_boundary_s2(s1, branch)
        assert got.tolist() == [acm_boundary_s2(x, branch) for x in s1.tolist()]
    assert isinstance(acm_boundary_s2(0.3), float)
    s2 = s1[::-1]
    values = acm_region_value(s1, s2)
    flags = acm_degenerate(s1, s2)
    for a, b, v, f in zip(s1.tolist(), s2.tolist(), values.tolist(), flags.tolist()):
        assert v == acm_region_value(a, b)
        assert f is acm_degenerate(a, b)
    with pytest.raises(ValueError):
        acm_boundary_s2(np.array([0.2, 1.3]), "upper")
    with pytest.raises(ValueError):
        acm_boundary_s2(float("nan"), "upper")


def test_boundary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        acm_boundary_s2(0.5, "middle")
    with pytest.raises(ValueError):
        acm_boundary_s2(1.3, "upper")


def test_wzcm_clone_rejects_unnormalized_coefficients():
    with pytest.raises(ValueError):
        wzcm_clone(np.array([1.0, 1.0, 0.0, 0.0]))


def test_complex_bell_coefficients_accepted():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        rho = wzcm_clone(c)
        assert_density_matrix(rho)
        weights = np.abs(c) ** 4
        assert abs(wzcm_fidelity(c) - weights.sum()) < 1e-13
