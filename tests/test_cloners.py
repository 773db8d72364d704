"""Cloning machines: closed forms, fidelities, shrinks, region geometry."""

import math
import pathlib

import numpy as np
import pytest

import qclone
from qclone.cloners import (
    CONSTRAINT_SLACK,
    ShrinkParams,
    acm_boundary_s2,
    acm_degenerate,
    acm_region_value,
    clone,
    family_shrink,
    wzcm_full_output,
)
from qclone.entanglement import fidelity
from qclone.qmath import partial_trace
from qclone.states import BELL_MATRIX, psi_minus_family

from closed_forms import BELL_ORDER, acm_clone_closed, bell_state, wzcm_clone_closed
from density_check import assert_density_matrix

ALPHAS = np.linspace(0.0, 1.0, 101)
SHRINKS = np.linspace(0.0, 1.0, 21)


def test_wzcm_closed_form_agreement():
    for alpha in ALPHAS:
        got = clone(psi_minus_family(alpha), "wzcm")
        assert np.max(np.abs(got - wzcm_clone_closed(alpha))) <= 1e-12


def test_scm_closed_form_agreement():
    for alpha in ALPHAS:
        got = clone(psi_minus_family(alpha), "scm")
        assert np.max(np.abs(got - acm_clone_closed(alpha, 3 / 5))) <= 1e-12


def test_acm_closed_form_agreement():
    for alpha in ALPHAS[::4]:
        state = psi_minus_family(alpha)
        for s in SHRINKS:
            got = clone(state, "acm", s=s)
            assert np.max(np.abs(got - acm_clone_closed(alpha, s))) <= 1e-12


def test_clone_outputs_are_density_matrices():
    for alpha in (0.0, 0.3, 1 / math.sqrt(2), 0.9, 1.0):
        assert_density_matrix(clone(psi_minus_family(alpha), "wzcm"))
        assert_density_matrix(clone(psi_minus_family(alpha), "scm"))
        assert_density_matrix(clone(psi_minus_family(alpha), "acm", s=0.7))


def test_wzcm_clones_bell_states_perfectly():
    for which in BELL_ORDER:
        b = bell_state(which)
        rho = clone(b, "wzcm")
        assert abs(fidelity(b, rho) - 1.0) < 1e-14
        assert np.max(np.abs(rho - np.outer(b, b.conj()))) < 1e-14


def test_wzcm_minimal_fidelity_at_uniform_coefficients():
    # every sign pattern of (+-1/2, +-1/2, +-1/2, +-1/2) hits the floor 1/4
    for bits in range(16):
        coeffs = np.array([0.5 if bits >> i & 1 else -0.5 for i in range(4)])
        state = BELL_MATRIX.T @ coeffs
        assert abs(fidelity(state, clone(state, "wzcm")) - 0.25) < 1e-14


def test_wzcm_fidelity_of_family_state():
    for alpha in ALPHAS:
        beta = math.sqrt(1 - alpha * alpha)
        state = psi_minus_family(alpha)
        want = ((alpha - beta) ** 4 + (alpha + beta) ** 4) / 4.0
        assert abs(fidelity(state, clone(state, "wzcm")) - want) < 1e-13


def test_wzcm_full_output_traces_to_clone():
    for alpha in (0.2, 0.55, 0.8):
        state = psi_minus_family(alpha)
        full = wzcm_full_output(BELL_MATRIX.conj() @ state)
        assert abs(np.vdot(full, full).real - 1.0) < 1e-13
        copy = clone(state, "wzcm")
        assert np.max(np.abs(partial_trace(full, "clone1") - copy)) < 1e-13
        assert np.max(np.abs(partial_trace(full, "clone2") - copy)) < 1e-13


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
    coeffs = BELL_MATRIX.conj() @ psi_minus_family(0.35)
    weights = np.abs(coeffs) ** 2
    machine = partial_trace(wzcm_full_output(coeffs), "machine")
    assert np.max(np.abs(machine - np.diag(weights))) < 1e-13


def test_family_shrink_table():
    assert family_shrink("wzcm") == 1.0
    assert family_shrink("scm") == family_shrink("scm", 2) == 3 / 5
    assert family_shrink("scm", 5) == 9 / 25
    assert abs(family_shrink("scm", 10**6) - 0.2) < 1e-6  # -> 1/5 for many copies
    assert family_shrink("acm", s=0.35) == 0.35


@pytest.mark.parametrize(
    "machine, kwargs, message",
    [
        ("scm", {"clones": 1}, "at least 2"),
        ("scm", {"clones": 2.0}, "must be an integer"),
        ("scm", {"clones": True}, "must be an integer"),
        ("acm", {}, "^machine acm needs s$"),
        # a parameter the machine does not take is an error, not ignored
        ("wzcm", {"clones": 3}, "^clones only applies to machine scm$"),
        ("wzcm", {"clones": 7}, "^clones only applies to machine scm$"),
        ("wzcm", {"s": 0.5}, "^s only applies to machine acm$"),
        ("scm", {"clones": 3, "s": 0.1}, "^s only applies to machine acm$"),
        ("acm", {"clones": 3, "s": 0.5}, "^clones only applies to machine scm$"),
        ("acm", {"s": 1.1}, "must lie in"),
        ("acm", {"s": math.nan}, "must lie in"),
        ("lcm", {}, "machine must be one of"),
    ],
)
def test_family_shrink_rejects_bad_inputs(machine, kwargs, message):
    with pytest.raises(ValueError, match=message):
        family_shrink(machine, **kwargs)
    with pytest.raises(ValueError, match=message):
        clone(psi_minus_family(0.6), machine, **kwargs)


def test_acm_shrink_limits():
    # s = 1 keeps the input projector, s = 0 leaves the maximally mixed state
    state = psi_minus_family(0.6)
    rho = np.outer(state, state.conj())
    kept = clone(state, "acm", s=1.0)
    assert np.array_equal(kept, rho)
    assert_density_matrix(kept)
    assert np.max(np.abs(kept @ kept - kept)) < 1e-14
    assert np.max(np.abs(clone(state, "acm", s=0.0) - np.eye(4) / 4.0)) < 1e-15
    mixed = clone(state, "acm", s=0.5)
    assert abs(np.trace(mixed).real - 1.0) < 1e-14


def test_acm_shrink_is_checked_once_by_family_shrink():
    with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\], got 1\.2$"):
        clone(psi_minus_family(0.6), "acm", s=1.2)
    package = pathlib.Path(qclone.__file__).parent
    for source in package.glob("*.py"):
        assert "shrink factor must lie" not in source.read_text(), source.name


def test_acm_at_scm_shrink_is_bitwise_scm():
    for alpha in (0.0, 0.25, 1 / math.sqrt(2), 0.87, 1.0):
        state = psi_minus_family(alpha)
        assert np.array_equal(clone(state, "acm", s=0.6), clone(state, "scm"))


def test_shrink_params_validation_and_constraint():
    # the bounds check on each way of building one is the test below
    p = ShrinkParams(0.5, 0.5)
    # 4(1-s1-s2)^2 - (1-s1)(1-s2) at the symmetric midpoint
    assert abs(acm_region_value(p.s1, p.s2) - (-0.25)) < 1e-15
    assert acm_region_value(p.s1, p.s2) <= CONSTRAINT_SLACK
    assert acm_region_value(0.9, 0.9) > CONSTRAINT_SLACK
    assert acm_region_value(0.0, 0.0) > CONSTRAINT_SLACK


@pytest.mark.parametrize("bad", [-0.1, 1.01, math.nan], ids=["below", "above", "nan"])
def test_every_shrink_params_construction_checks_the_range(bad):
    # a NamedTuple's _make, which _replace calls, skips __new__: without its
    # override _replace would let an out-of-range pair through
    p = ShrinkParams(0.5, 0.5)
    builds = {
        "s1": (lambda: ShrinkParams(bad, 0.5), lambda: ShrinkParams._make([bad, 0.5]),
               lambda: p._replace(s1=bad)),
        "s2": (lambda: ShrinkParams(0.5, bad), lambda: ShrinkParams._make((0.5, bad)),
               lambda: p._replace(s2=bad)),
    }
    for name, paths in builds.items():
        for build in paths:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{name} must lie in [0, 1], got {bad!r}"
    moved = p._replace(s2=0.25)
    assert type(moved) is ShrinkParams and moved == (0.5, 0.25)
    assert ShrinkParams._make(iter([1.0, 0.0])) == ShrinkParams(1.0, 0.0)


def test_degenerate_endpoints():
    assert acm_degenerate(1.0, 0.0)
    assert acm_degenerate(0.0, 1.0)
    assert not acm_degenerate(0.6, 0.6)
    # the endpoints still satisfy the region constraint
    assert acm_region_value(1.0, 0.0) <= CONSTRAINT_SLACK
    assert acm_region_value(0.0, 1.0) <= CONSTRAINT_SLACK


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


def test_boundary_checks_then_calls_the_unchecked_kernel():
    # the figures call the kernel on their own grids; the public function
    # keeps its messages, its float for a float and the kernel's bits
    branches = r"^branch must be one of \('upper', 'lower'\), got 'middle'$"
    with pytest.raises(ValueError, match=branches):
        acm_boundary_s2(0.5, "middle")
    with pytest.raises(ValueError, match=r"^s1 must lie in \[0, 1\], got 1\.3$"):
        acm_boundary_s2(1.3, "upper")
    with pytest.raises(ValueError, match=r"^s1 must lie in \[0, 1\], got nan$"):
        acm_boundary_s2(float("nan"), "lower")
    for s1 in (0.0, 0.3, 0.75, 1.0):
        for branch in ("upper", "lower"):
            got = acm_boundary_s2(s1, branch)
            assert type(got) is float
            assert got == float(qclone.cloners._acm_boundary_s2(np.float64(s1), branch))
    s1 = np.linspace(0.0, 1.0, 201)
    for branch in ("upper", "lower"):
        want = qclone.cloners._acm_boundary_s2(s1, branch)
        assert acm_boundary_s2(s1, branch).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_wzcm_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        clone(np.array([1.0, 1.0, 0.0, 0.0]), "wzcm")


def test_complex_bell_coefficients_accepted():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        rho = clone(BELL_MATRIX.T @ c, "wzcm")
        assert_density_matrix(rho)
        weights = np.abs(c) ** 4
        assert abs(fidelity(BELL_MATRIX.T @ c, rho) - weights.sum()) < 1e-13
