"""Concurrence and entanglement of formation against independent oracles.

The generic pipeline (PSD eigen-factor F = V sqrt(w), singular values of
F^T (sigma_y x sigma_y) F) is cross-checked three ways: the closed-form
X-state expression, the pure-state law C = |<psi|sigma_y x sigma_y|psi*>|,
and the trace identity sum(l_i^2) = tr(rho rho~); against mpmath, next to
the singlet and as the singular values of the principal root's
sqrt(rho) (sigma_y x sigma_y) sqrt(rho)* at 30 digits.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qclone.cloners import clone, family_shrink
from qclone.entanglement import (
    _FLIP_SIGNS,
    EntanglementReport,
    SIGMA_Y_PAIR,
    concurrence,
    eof_from_concurrence,
    fidelity,
)
from qclone.qmath import (
    SQRT_ZERO_FLOOR,
    EigenConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
)
from qclone.states import psi_minus_family

from closed_forms import NotXStateError, concurrence_xstate, psd_factor


def random_pure(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_local_unitary(rng):
    """U x V with U, V unitary 2x2 from QR of complex Gaussian matrices."""
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return np.kron(u, v)


def random_xstate(rng, outer=None, inner=None):
    """Random X-state; outer/inner fix |rho_03|, |rho_12| as fractions of their bounds."""
    d = rng.uniform(0.05, 1.0, size=4)
    d /= d.sum()
    # coherences capped by the PSD bounds sqrt(d0 d3), sqrt(d1 d2); a
    # fraction of 1 puts the coherence on its bound, which drops the rank
    m = np.diag(d).astype(np.complex128)
    r1 = rng.uniform(0, 1) if outer is None else outer
    z1 = r1 * math.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r2 = rng.uniform(0, 1) if inner is None else inner
    z2 = r2 * math.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    m[0, 3], m[3, 0] = z1, z1.conjugate()
    m[1, 2], m[2, 1] = z2, z2.conjugate()
    return m


def test_eof_endpoints_and_checkpoint():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    assert abs(eof_from_concurrence(0.4) - 0.25022491161107085) < 1e-12
    with pytest.raises(ValueError):
        eof_from_concurrence(1.2)


@pytest.mark.parametrize("c", [5.8e-6, 5.8e-5, 1e-3])
def test_eof_keeps_relative_precision_at_small_concurrence(c):
    # forming 1 - x by subtraction missed these by 6.9e-6, 9.9e-7 (relative)
    with mpmath.workdps(40):
        cm = mpmath.mpf(c)
        y = cm * cm / (2 * (1 + mpmath.sqrt(1 - cm * cm)))
        want = -((1 - y) * mpmath.log1p(-y) + y * mpmath.log(y)) / mpmath.log(2)
    assert abs(eof_from_concurrence(c) - float(want)) <= 1e-12 * float(want)


def test_eof_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 1001)
    values = [eof_from_concurrence(c) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_pure_state_concurrence_law():
    rng = np.random.default_rng(62)
    for _ in range(1000):
        v = random_pure(rng)
        want = abs(v.conj() @ SIGMA_Y_PAIR @ v.conj())
        got = concurrence(np.outer(v, v.conj())).concurrence
        assert abs(got - want) <= 1e-9


def test_pure_state_determinant_form():
    # for psi = (a, b, c, d), C = 2|ad - bc|
    rng = np.random.default_rng(63)
    for _ in range(200):
        v = random_pure(rng)
        want = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        assert abs(concurrence(np.outer(v, v.conj())).concurrence - want) < 1e-9


def test_lambda_trace_identity():
    # sum of l_i^2 equals tr(rho rho~)
    rng = np.random.default_rng(64)
    for rank in (1, 2, 3, 4):
        for _ in range(100):
            rho = random_density(rng, rank)
            report = concurrence(rho)
            trace = np.trace(rho @ SIGMA_Y_PAIR @ rho.conj() @ SIGMA_Y_PAIR).real
            assert abs(sum(l * l for l in report.lambdas) - trace) < 1e-9


def test_spin_flip_is_a_signed_column_reversal():
    # concurrence forms F^T Y as F^T with its columns reversed and signed;
    # the product with the 0/+-1 matrix Y rounds nothing, so the two agree
    # bit for bit
    assert _FLIP_SIGNS.tolist() == [-1.0, 1.0, 1.0, -1.0]
    rng = np.random.default_rng(66)
    for _ in range(200):
        f = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(f.T[:, ::-1] * _FLIP_SIGNS, f.T @ SIGMA_Y_PAIR)


def test_lambdas_are_the_singular_values_of_the_sandwich():
    # against the two-product sandwich svd(F^T Y F) with the same floor, F
    # the layered eigen-factor of tests/closed_forms.py
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(67)
    for k in range(400):
        rho = random_density(rng, rank=1 + k % 4)
        factor = psd_factor(rho)
        want = np.linalg.svd(factor.T @ SIGMA_Y_PAIR @ factor, compute_uv=False)
        want[want <= SQRT_ZERO_FLOOR * want[0]] = 0.0
        got = np.array(concurrence(rho).lambdas)
        assert np.max(np.abs(got - want)) <= 4 * eps * want[0]


def test_lambdas_sorted_and_nonnegative():
    rng = np.random.default_rng(65)
    for _ in range(100):
        report = concurrence(random_density(rng))
        assert all(a >= b for a, b in zip(report.lambdas, report.lambdas[1:]))
        assert report.lambdas[-1] >= 0.0


def test_lambdas_match_mpmath_principal_root_oracle():
    # l_i at 30 digits as the singular values of R Y conj(R), R = sqrt(rho)
    # the principal root, which shares neither the eigen-factor nor LAPACK
    # with the code.  rho = G G^dag / tr is built in mpmath, so it has exact
    # rank r; mpmath's sqrtm iterates on an inverse and does not converge on
    # a singular rho, so R comes from mpmath's Hermitian eigensolver.
    rng = np.random.default_rng(4180)
    y = mpmath.matrix(SIGMA_Y_PAIR.real.tolist())
    for rank in (1, 2, 3, 4):
        for _ in range(10):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            with mpmath.workdps(30):
                gm = mpmath.matrix(g.tolist())
                rho = gm * gm.transpose_conj()
                rho /= sum(rho[i, i] for i in range(4)).real
                values, vectors = mpmath.eighe(rho)
                roots = mpmath.diag([mpmath.sqrt(w) if w > 1e-25 else 0 for w in values])
                root = vectors * roots * vectors.transpose_conj()
                sv = mpmath.svd_c(root * y * root.conjugate(), compute_uv=False)
                want = sorted((float(x) for x in sv), reverse=True)
                rho = np.array(rho.tolist(), dtype=np.complex128)
            got = concurrence(rho).lambdas
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13, (rank, got, want)


def test_local_unitary_invariance():
    rng = np.random.default_rng(66)
    for _ in range(100):
        rho = random_density(rng)
        base = concurrence(rho).concurrence
        uw = random_local_unitary(rng)
        rotated = uw @ rho @ uw.conj().T
        rotated = (rotated + rotated.conj().T) / 2.0
        assert abs(concurrence(rotated).concurrence - base) < 1e-9


def test_generic_matches_xstate_closed_form_on_random_xstates():
    rng = np.random.default_rng(67)
    for _ in range(300):
        rho = random_xstate(rng)
        assert abs(concurrence(rho).concurrence - concurrence_xstate(rho)) <= 1e-9


# Properties of the generic pipeline over random states of every rank: a
# rank-deficient rho is where the eigensolver's noise on zero eigenvalues
# would reach the square root and the l_i.
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, rank=st.integers(1, 4))
def test_concurrence_and_eof_lie_in_unit_interval(seed, rank):
    report = concurrence(random_density(np.random.default_rng(seed), rank))
    assert 0.0 <= report.concurrence <= 1.0
    assert 0.0 <= report.eof <= 1.0


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, rank=st.integers(1, 4))
def test_concurrence_is_invariant_under_local_unitaries(seed, rank):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, rank)
    uv = random_local_unitary(rng)
    rotated = uv @ rho @ uv.conj().T
    rotated = (rotated + rotated.conj().T) / 2.0
    assert abs(concurrence(rotated).concurrence - concurrence(rho).concurrence) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    outer=st.sampled_from([None, 1.0]),
    inner=st.sampled_from([None, 1.0]),
)
def test_concurrence_matches_xstate_formula(seed, outer, inner):
    rho = random_xstate(np.random.default_rng(seed), outer, inner)
    assert abs(concurrence(rho).concurrence - concurrence_xstate(rho)) <= 1e-10


def test_generic_matches_xstate_closed_form_on_cloner_outputs():
    for alpha in np.linspace(0.0, 1.0, 101):
        state = psi_minus_family(alpha)
        for rho in (
            clone(psi_minus_family(alpha), "wzcm"),
            clone(state, "scm"),
            clone(state, "acm", s=0.85),
            clone(state, "acm", s=0.45),
        ):
            assert abs(concurrence(rho).concurrence - concurrence_xstate(rho)) <= 1e-9


def test_wzcm_preserves_input_entanglement():
    for alpha in np.linspace(0.0, 1.0, 201):
        state = psi_minus_family(alpha)
        e_in = concurrence(np.outer(state, state.conj())).eof
        e_out = concurrence(clone(state, "wzcm")).eof
        assert abs(e_out - e_in) <= 1e-10


def test_wzcm_clone_concurrence_is_two_alpha_beta():
    for alpha in np.linspace(0.0, 1.0, 101):
        beta = math.sqrt(1 - alpha * alpha)
        got = concurrence(clone(psi_minus_family(alpha), "wzcm")).concurrence
        assert abs(got - 2 * alpha * beta) < 1e-12


def test_wzcm_clone_spectrum_next_to_the_singlet_matches_mpmath():
    # lambda2 = (alpha - beta)^2 / 2 is below 8e-6 here: taken as the square
    # root of an eigenvalue of rho rho~ it would carry an error of
    # ~eps / (2 lambda2), and a zero-floor on that eigenvalue biases C
    for alpha in np.linspace(-2e-3, 2e-3, 81) + 1 / math.sqrt(2):
        report = concurrence(clone(psi_minus_family(alpha), "wzcm"))
        with mpmath.workdps(40):
            a = mpmath.mpf(float(alpha))
            b = mpmath.sqrt(1 - a * a)
            lambda2 = float((a - b) ** 2 / 2)
            c = float(2 * a * b)
        assert abs(report.lambdas[1] - lambda2) <= 1e-14, alpha
        assert abs(report.concurrence - c) <= 1e-14, alpha


def test_scm_singlet_concurrence_follows_shrink_law():
    # C = max(0, (3s - 1)/2) for the maximally entangled input
    singlet = psi_minus_family(1 / math.sqrt(2))
    for count in range(2, 9):
        s = family_shrink("scm", count)
        want = max(0.0, (3 * s - 1) / 2)
        got = concurrence(clone(singlet, "scm", count)).concurrence
        assert abs(got - want) < 1e-12


def test_scm_entanglement_dies_at_weak_inputs():
    # clone is separable exactly when 2 alpha beta <= 1/3
    def threshold_gap(alpha):
        return 2 * alpha * math.sqrt(1 - alpha * alpha) - 1 / 3

    inside = 0.17  # 2ab = 0.335 > 1/3
    outside = 0.16  # 2ab = 0.316 < 1/3
    assert threshold_gap(inside) > 0 > threshold_gap(outside)
    assert concurrence(clone(psi_minus_family(inside), "scm")).concurrence > 0.0
    assert concurrence(clone(psi_minus_family(outside), "scm")).concurrence == 0.0


def test_concurrence_report_fields():
    report = concurrence(clone(psi_minus_family(0.6), "wzcm"))
    assert isinstance(report, EntanglementReport)
    assert len(report.lambdas) == 4
    assert report.method == "generic"
    assert 0.0 <= report.concurrence <= 1.0
    assert abs(report.eof - eof_from_concurrence(report.concurrence)) == 0.0


def test_concurrence_of_separable_states_is_zero():
    assert concurrence(np.eye(4, dtype=np.complex128) / 4.0).concurrence == 0.0
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    assert concurrence(product).concurrence == 0.0


def test_concurrence_of_bell_projector_is_one():
    singlet = psi_minus_family(1 / math.sqrt(2))
    rho = np.outer(singlet, singlet.conj())
    assert abs(concurrence(rho).concurrence - 1.0) < 1e-12


def test_concurrence_rejects_a_trace_off_one():
    # scaling rho scales every l_i: at trace 3 this C of 0.850 would clip to 1
    alpha, s = 0.7, 0.9
    rho = clone(psi_minus_family(alpha), "acm", s=s)
    want = 2 * s * alpha * math.sqrt(1 - alpha * alpha) - (1 - s) / 2
    assert abs(concurrence(rho).concurrence - want) < 1e-12
    for scale in (3.0, 0.5, 1.0 + 1e-9):
        with pytest.raises(NotNormalizedError):
            concurrence(scale * rho)
    assert abs(concurrence((1.0 + 1e-11) * rho).concurrence - want) < 1e-10


def test_concurrence_rejects_non_hermitian_indefinite_and_nan_input():
    rho = clone(psi_minus_family(0.7), "acm", s=0.9)
    skewed = rho.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        concurrence(skewed)
    # Werner state at p = 1.1376: eigenvalues (1 - p)/4 = -0.0344 (three
    # times) and (1 + 3p)/4, trace 1; the message prints a plain float
    p = 1.1376
    singlet = psi_minus_family(1 / math.sqrt(2))
    werner = p * np.outer(singlet, singlet.conj()) + (1 - p) / 4 * np.eye(4)
    message = r"^eigenvalue -0\.034\d+ below the -1e-10 roundoff floor$"
    with pytest.raises(NotPSDError, match=message):
        concurrence(werner)
    poisoned = rho.copy()
    poisoned[2, 2] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        concurrence(poisoned)


# LAPACK's non-convergence as numpy's gufuncs return it: every output NaN,
# with the floating-point invalid flag raised (here by 0/0)
def _failed_eigh(a):
    return np.zeros(4) / 0.0, np.zeros((4, 4), np.complex128) / 0.0


def _failed_svd(a):
    return np.zeros(4) / 0.0


def _with_entry(index, value):
    m = np.eye(4, dtype=np.complex128) / 4.0
    m[index] = value
    return m


#: each check on concurrence's route: input, gufunc stand-in, type, message.
ROUTE_CHECKS = {
    "wrong_shape": (np.eye(3) / 3.0, None, ValueError, r"^expected a 4x4 matrix, got shape \(3, 3\)$"),
    "nan_entry": (_with_entry((1, 2), np.nan), None, ValueError, r"^matrix contains NaN or Inf entries$"),
    "inf_on_diagonal": (_with_entry((3, 3), np.inf), None, ValueError, r"^matrix contains NaN or Inf entries$"),
    "skew": (_with_entry((0, 1), 2e-10), None, NotHermitianError, r"^matrix is not Hermitian within tolerance$"),
    "eigh_nan": (
        np.eye(4) / 4.0, ("eigh_lo", _failed_eigh), EigenConvergenceError,
        r"^Hermitian eigensolve failed: Eigenvalues did not converge$",
    ),
    "not_psd": (np.diag([0.4, 0.4, 0.3, -0.1]), None, NotPSDError, r"^eigenvalue -0\.1 below the -1e-10 roundoff floor$"),
    "trace": (np.eye(4) / 2.0, None, NotNormalizedError, r"^density matrix trace 2\.0 differs from 1$"),
    "svd_nan": (np.eye(4) / 4.0, ("svd", _failed_svd), np.linalg.LinAlgError, r"^SVD did not converge$"),
}


@pytest.mark.parametrize("rho, stand_in, error, message", ROUTE_CHECKS.values(), ids=ROUTE_CHECKS)
def test_each_check_on_the_route_keeps_its_type_and_message(monkeypatch, rho, stand_in, error, message):
    if stand_in is not None:
        name, solve = stand_in
        monkeypatch.setattr(f"qclone.entanglement._umath_linalg.{name}", solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=message) as info:
            concurrence(rho)
    assert type(info.value) is error
    assert caught == []


def test_xstate_concurrence_rejects_a_trace_off_one():
    # at trace 3 the closed form read C = 2.549, a concurrence above 1
    alpha, s = 0.7, 0.9
    rho = clone(psi_minus_family(alpha), "acm", s=s)
    want = 2 * s * alpha * math.sqrt(1 - alpha * alpha) - (1 - s) / 2
    assert abs(concurrence_xstate(rho) - want) < 1e-12
    for scale in (3.0, 0.5, 1.0 + 1e-9):
        with pytest.raises(NotNormalizedError):
            concurrence_xstate(scale * rho)
    assert abs(concurrence_xstate((1.0 + 1e-11) * rho) - want) < 1e-10


def test_xstate_detection():
    bad = np.eye(4, dtype=np.complex128) / 4.0
    bad[0, 1] = 0.05
    bad[1, 0] = 0.05
    with pytest.raises(NotXStateError):
        concurrence_xstate(bad)
    # two off-pattern entries: the first in row-major order is named
    two = np.eye(4, dtype=np.complex128) / 4.0
    two[2, 0] = two[0, 2] = 0.03
    two[3, 1] = two[1, 3] = 0.02j
    message = r"^entry \(0, 2\) = np\.complex128\(0\.03\+0j\) breaks the X pattern$"
    with pytest.raises(NotXStateError, match=message):
        concurrence_xstate(two)


def test_fidelity_reference_points():
    state = psi_minus_family(0.6)
    assert abs(fidelity(state, np.outer(state, state.conj())) - 1.0) < 1e-14
    assert abs(fidelity(state, np.eye(4, dtype=np.complex128) / 4.0) - 0.25) < 1e-14
    # shrink-map output interpolates linearly: F = s + (1-s)/4
    assert abs(fidelity(state, clone(state, "acm", s=0.8)) - 0.85) < 1e-14


def test_fidelity_of_two_copy_scm_is_seven_tenths_for_any_input():
    rng = np.random.default_rng(69)
    for _ in range(50):
        v = random_pure(rng)
        assert abs(fidelity(v, clone(v, "scm")) - 0.7) < 1e-13


def test_fidelity_rejects_unnormalized_reference():
    with pytest.raises(NotNormalizedError):
        fidelity(np.array([1.0, 1.0, 0.0, 0.0]), np.eye(4, dtype=np.complex128) / 4.0)


def test_fidelity_rejects_a_trace_off_one():
    # F = s + (1 - s)/4 = 0.925; at trace 3 it read 3 * 0.925, clamped to 1
    state = psi_minus_family(0.7)
    rho = clone(state, "acm", s=0.9)
    assert abs(fidelity(state, rho) - 0.925) < 1e-14
    for scale in (3.0, 0.5):
        with pytest.raises(NotNormalizedError):
            fidelity(state, scale * rho)
    assert abs(fidelity(state, (1.0 + 1e-11) * rho) - 0.925) < 1e-10


def test_fidelity_stays_in_unit_interval():
    rng = np.random.default_rng(68)
    for _ in range(100):
        v = random_pure(rng)
        f = fidelity(v, random_density(rng))
        assert 0.0 <= f <= 1.0
