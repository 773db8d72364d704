"""Quadrature, figure sweeps and alpha-averaged entanglement.

The alpha means are checked against a mechanical 100k-point midpoint rule
evaluated on the same integrands and against mpmath.quad at 30 digits.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qclone.analysis
from qclone.analysis import (
    QUAD_DEFAULT_TOL,
    QuadratureConvergenceError,
    SweepSeries,
    acm_alpha_surface,
    acm_curve_sweep,
    acm_region_grid,
    family_eof,
    family_mean,
    mean_entanglement,
    mean_entanglement_acm,
    uniform_grid,
)
from qclone.cloners import (
    CONSTRAINT_SLACK,
    ConstraintViolatedError,
    ShrinkParams,
    acm_boundary_s2,
    acm_clone,
    acm_clone_closed,
    acm_degenerate,
    acm_region_value,
    scm_clone,
    scm_shrink_factor,
    wzcm_family_clone,
)
from qclone.entanglement import concurrence, concurrence_xstate, eof_from_concurrence
from qclone.states import psi_minus_family

SINGLET = 1 / math.sqrt(2)
#: 200 evenly spaced alphas plus the singlet.
KERNEL_ALPHAS = np.union1d(np.linspace(0.0, 1.0, 200), [SINGLET])
#: 21 evenly spaced shrinks plus the separability threshold 1/3 and s(M=3).
KERNEL_SHRINKS = np.union1d(np.linspace(0.0, 1.0, 21), [1 / 3, scm_shrink_factor(3)])


def midpoint_rule(f, n=100_000):
    """Midpoint rule on [0, 1] with n cells; f takes the array of midpoints."""
    xs = (np.arange(n) + 0.5) / n
    return float(np.sum(f(xs))) / n


def mp_family_mean(s: float):
    """Integral over alpha in [0, 1] of the shrink-s clone's EoF, by mpmath.quad.

    C = 2 s alpha beta - (1-s)/2 is positive only between the two kinks
    alpha = sin(theta1), cos(theta1) with sin(2 theta1) = (1-s)/(2s), which
    bound the integration interval.
    """
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        if 3 * s <= 1:
            return mpmath.mpf(0)

        def eof(a):
            c = 2 * s * a * mpmath.sqrt(1 - a * a) - (1 - s) / 2
            if c <= 0:
                return mpmath.mpf(0)
            y = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))
            return -((1 - y) * mpmath.log1p(-y) + y * mpmath.log(y)) / mpmath.log(2)

        theta1 = mpmath.asin((1 - s) / (2 * s)) / 2
        return mpmath.quad(eof, [mpmath.sin(theta1), mpmath.cos(theta1)])


def test_uniform_grid():
    g = uniform_grid(5)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        uniform_grid(1)


def test_sweep_series_validates_ordering_and_uniqueness():
    def series(*columns, inputs=1):
        names = tuple("xyzw"[: len(columns)])
        columns = tuple(np.array(c) for c in columns)
        return SweepSeries(axis_names=names, columns=columns, inputs=inputs)

    with pytest.raises(ValueError, match="sorted"):
        series([0.5, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError, match="duplicate"):
        series([0.2, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError, match="differ in length"):
        series([0.2, 0.5], [1.0])
    with pytest.raises(ValueError, match="one mask per axis"):
        SweepSeries(("x",), (np.zeros(1),), inputs=1, missing=(None, None))
    with pytest.raises(ValueError, match="differ in length"):
        SweepSeries(("x", "y"), (np.zeros(1), np.zeros(1)), 1, missing=(None, np.zeros(2, bool)))
    # two inputs: lexicographic, so the second may fall when the first rises
    series([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [5.0, 6.0, 7.0, 8.0], inputs=2)
    with pytest.raises(ValueError, match="sorted"):
        series([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [5.0, 6.0, 7.0], inputs=2)
    with pytest.raises(ValueError, match="duplicate"):
        series([0.0, 1.0, 1.0], [0.0, 0.5, 0.5], [5.0, 6.0, 7.0], inputs=2)
    # an output column need not be sorted, and one row is always in order
    series([0.0, 1.0], [2.0, 1.0])
    series([0.3], [1.0])


def test_sweep_series_iter_flat_gives_python_scalars_and_none_where_missing():
    s = SweepSeries(
        axis_names=("clones", "value", "flag"),
        columns=(np.array([2, 3]), np.array([0.5, 0.25]), np.array([True, False])),
        inputs=1,
        missing=(None, np.array([False, True]), None),
    )
    rows = list(s.iter_flat())
    assert rows == [(2, 0.5, True), (3, None, False)]
    assert [type(x) for x in rows[0]] == [int, float, bool]


def test_entanglement_curve_wzcm_equals_input_entanglement():
    grid = uniform_grid(51)
    for alpha, eof in zip(grid.tolist(), family_eof(grid, 1.0).tolist()):
        beta = math.sqrt(1 - alpha * alpha)
        assert abs(eof - eof_from_concurrence(2 * alpha * beta)) < 1e-12


def test_entanglement_curve_scm_peaks_at_maximal_input_entanglement():
    grid = uniform_grid(101)
    curve = family_eof(grid, scm_shrink_factor(2))
    assert abs(grid[np.argmax(curve)] - 1 / math.sqrt(2)) <= 0.01  # nearest grid point
    assert curve[0] == 0.0 and curve[-1] == 0.0  # product inputs stay separable


def test_entanglement_curve_validation():
    for alpha, s in (([0.0, 1.5], 1.0), ([0.0, math.nan], 1.0), (0.5, [1.0, math.nan])):
        with pytest.raises(ValueError):
            family_eof(alpha, s)


def acm_average(alpha, params):
    """Two-copy average EoF of the asymmetric cloner at one alpha, for a
    shrink pair inside the region."""
    qclone.analysis._require_region(params.s1, params.s2)
    return float(0.5 * (family_eof(alpha, params.s1) + family_eof(alpha, params.s2)))


def test_acm_entanglement_curve_is_symmetric_in_the_two_shrinks():
    for s1, s2 in ((0.8, 0.3), (0.55, 0.55), (1.0, 0.0)):
        a = acm_average(0.6, ShrinkParams(s1, s2))
        b = acm_average(0.6, ShrinkParams(s2, s1))
        assert abs(a - b) < 1e-14


def test_acm_entanglement_curve_rejects_points_outside_region():
    with pytest.raises(ConstraintViolatedError):
        acm_average(0.5, ShrinkParams(0.9, 0.9))


def test_acm_entanglement_curve_reference_values():
    singlet = 1 / math.sqrt(2)
    assert abs(acm_average(singlet, ShrinkParams(1.0, 0.0)) - 0.5) < 1e-12
    assert abs(acm_average(singlet, ShrinkParams(3 / 5, 3 / 5)) - 0.25022) < 1e-4
    for params in (ShrinkParams(1.0, 0.0), ShrinkParams(0.5, 0.5)):
        assert acm_average(1.0, params) == 0.0  # product input stays separable


def test_mean_entanglement_reference_values():
    wz = mean_entanglement("wzcm", 1e-7)
    sc = mean_entanglement("scm", 1e-7)
    assert abs(wz.value - 0.59026) < 1e-4
    assert abs(sc.value - 0.11747) < 1e-4
    assert wz.evaluations > 0 and sc.evaluations > 0
    with pytest.raises(ValueError):
        mean_entanglement("acm")


def test_mean_entanglement_matches_midpoint_rule():
    wz = mean_entanglement("wzcm", 1e-7)
    assert abs(wz.value - midpoint_rule(lambda a: family_eof(a, 1.0))) < 1e-5
    sc = mean_entanglement("scm", 1e-7)
    assert abs(sc.value - midpoint_rule(lambda a: family_eof(a, scm_shrink_factor(2)))) < 1e-5


def test_halving_the_tolerance_is_self_consistent():
    for tol in (1e-5, 1e-6):
        coarse = mean_entanglement("scm", tol).value
        fine = mean_entanglement("scm", tol / 2).value
        assert abs(coarse - fine) <= tol


def test_symmetric_machines_never_raise_entanglement():
    # shrinking cannot create entanglement on the input family
    for alpha in np.linspace(0.0, 1.0, 41):
        e_in = eof_from_concurrence(2 * alpha * math.sqrt(1 - alpha * alpha))
        assert family_eof(alpha, scm_shrink_factor(2)) <= e_in + 1e-12
        for s in np.linspace(0.0, 1.0, 11):
            assert family_eof(alpha, s) <= e_in + 1e-12


def test_mean_entanglement_acm_is_symmetric():
    a = mean_entanglement_acm(ShrinkParams(0.8, 0.3), 1e-6).value
    b = mean_entanglement_acm(ShrinkParams(0.3, 0.8), 1e-6).value
    assert abs(a - b) <= 1e-6


def test_mean_entanglement_acm_degenerate_endpoint():
    # (1, 0): one perfect copy carrying the input entanglement, one dead copy
    res = mean_entanglement_acm(ShrinkParams(1.0, 0.0), 1e-7)
    wz = mean_entanglement("wzcm", 1e-7)
    assert abs(res.value - wz.value / 2.0) < 1e-6
    with pytest.raises(ConstraintViolatedError):
        mean_entanglement_acm(ShrinkParams(0.5, 0.1))


def test_mean_entanglement_acm_symmetric_point_matches_scm():
    res = mean_entanglement_acm(ShrinkParams(3 / 5, 3 / 5), 1e-7)
    sc = mean_entanglement("scm", 1e-7)
    assert abs(res.value - sc.value) < 1e-9  # identical integrand, same quadrature


def test_acm_curve_sweep_fixed_alpha():
    grid = uniform_grid(41)
    series = acm_curve_sweep(grid, "upper", alpha=1 / math.sqrt(2))
    assert series.axis_names == ("s1", "s2", "avg_eof", "degenerate")
    flat = list(series.iter_flat())
    assert len(flat) == 41
    for s1, s2, value, degenerate in flat:
        assert abs(s2 - min(max(acm_boundary_s2(s1, "upper"), 0.0), 1.0)) < 1e-15
        assert 0.0 <= value <= 1.0
    # endpoints are the degenerate identity/swap corners
    assert flat[0][3] is True and flat[-1][3] is True
    assert all(row[3] is False for row in flat[1:-1])


def test_acm_curve_sweep_minimum_sits_at_symmetric_point():
    grid = uniform_grid(41)  # contains 3/5 = 24/40
    series = acm_curve_sweep(grid, "upper", alpha=1 / math.sqrt(2))
    flat = list(series.iter_flat())
    s1_min, _, v_min, _ = min(flat, key=lambda r: r[2])
    assert abs(s1_min - 3 / 5) < 1e-12
    # endpoints carry half the input entanglement: E = 1/2
    assert abs(flat[0][2] - 0.5) < 1e-12
    assert abs(flat[-1][2] - 0.5) < 1e-12


def test_acm_curve_sweep_mean_mode():
    grid = np.array([0.0, 0.5, 3 / 5, 1.0])
    series = acm_curve_sweep(grid, "upper", alpha=None, tol=1e-6)
    assert series.axis_names == ("s1", "s2", "mean_eof", "degenerate")
    values = {row[0]: row[2] for row in series.iter_flat()}
    sc = mean_entanglement("scm", 1e-6).value
    assert abs(values[3 / 5] - sc) < 1e-5
    wz = mean_entanglement("wzcm", 1e-6).value
    assert abs(values[0.0] - wz / 2.0) < 1e-5
    assert abs(values[1.0] - wz / 2.0) < 1e-5


def test_mean_sweep_dips_at_the_symmetric_point():
    # along the upper branch the alpha-averaged value falls toward the
    # two-copy symmetric machine and rises again past it
    tol = 1e-7
    series = acm_curve_sweep(uniform_grid(41), "upper", alpha=None, tol=tol)
    flat = list(series.iter_flat())
    pivot = [i for i, row in enumerate(flat) if abs(row[0] - 3 / 5) < 1e-12][0]
    values = [row[2] for row in flat]
    slack = 2 * tol
    for i in range(pivot):
        assert values[i + 1] <= values[i] + slack
    for i in range(pivot, len(values) - 1):
        assert values[i + 1] >= values[i] - slack
    assert min(values) == values[pivot]


def test_scm_multiclone_entanglement_series():
    state = psi_minus_family(1 / math.sqrt(2))
    cs = [concurrence(scm_clone(state, m)).concurrence for m in range(2, 9)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))  # more copies, less entanglement
    assert cs[0] > cs[3] > 0.0  # M = 2..5 still entangled
    assert cs[4] == cs[5] == cs[6] == 0.0  # M >= 6 separable


def test_acm_region_grid_membership():
    series = acm_region_grid(11, 0.7)
    cells = {(round(r[0], 6), round(r[1], 6)): r[2] for r in series.iter_flat()}
    assert cells[(0.5, 0.5)] is not None
    assert cells[(0.9, 0.9)] is None
    assert cells[(0.0, 0.0)] is None
    assert cells[(1.0, 0.0)] is not None  # degenerate corner evaluates
    assert len(cells) == 121


def test_acm_region_grid_interior_maximum_on_boundary():
    # the best average entanglement at fixed alpha is attained on the
    # boundary curve: for every interior admissible point some boundary
    # point does at least as well
    series = acm_region_grid(21, 1 / math.sqrt(2))
    admissible = [r for r in series.iter_flat() if r[2] is not None]
    best_value = max(r[2] for r in admissible)
    boundary = acm_curve_sweep(uniform_grid(201), "upper", alpha=1 / math.sqrt(2))
    boundary_best = max(r[2] for r in boundary.iter_flat())
    assert boundary_best >= best_value - 1e-9


def test_acm_alpha_surface_layout():
    series = acm_alpha_surface(uniform_grid(5), uniform_grid(4), "upper")
    assert series.axis_names == ("alpha", "s1", "s2", "avg_eof", "degenerate")
    flat = list(series.iter_flat())
    assert len(flat) == 20
    inputs = [(r[0], r[1]) for r in flat]
    assert inputs == sorted(inputs)


def test_default_tolerance_is_exposed():
    assert QUAD_DEFAULT_TOL == 1e-7


def test_family_eof_matches_xstate_closed_form():
    # independent route: the closed-form clone matrix and the X-state law
    got = family_eof(KERNEL_ALPHAS[:, None], KERNEL_SHRINKS[None, :])
    for i, alpha in enumerate(KERNEL_ALPHAS):
        for j, s in enumerate(KERNEL_SHRINKS):
            want = eof_from_concurrence(concurrence_xstate(acm_clone_closed(alpha, s)))
            assert abs(got[i, j] - want) <= 1e-12, (alpha, s)


def test_family_eof_matches_generic_pipeline():
    # the generic singular-value route on the clones the machines build
    got = family_eof(KERNEL_ALPHAS[:, None], KERNEL_SHRINKS[None, :])
    for i, alpha in enumerate(KERNEL_ALPHAS):
        state = psi_minus_family(alpha)
        for j, s in enumerate(KERNEL_SHRINKS):
            assert abs(got[i, j] - concurrence(acm_clone(state, s)).eof) <= 1e-10, (alpha, s)
        wz = concurrence(wzcm_family_clone(alpha)).eof
        assert abs(got[i, -1] - wz) <= 1e-10, alpha


def test_wzcm_curve_is_exact_next_to_the_singlet():
    # the generic route missed this point by 1.8e-7 in C
    alpha = SINGLET + 3e-4
    want = eof_from_concurrence(2 * alpha * math.sqrt(1 - alpha * alpha))
    assert abs(family_eof(alpha, 1.0) - want) <= 1e-12


@pytest.mark.parametrize("c", [5.8e-6, 5.8e-5, 1e-3])
def test_family_eof_keeps_relative_precision_at_small_concurrence(c):
    # the wzcm clone at alpha ~ c/2 has C = 2 alpha beta with no cancellation;
    # forming 1 - x by subtraction missed E there by up to 6.9e-6 (relative)
    alpha = c / 2.0
    got = family_eof(alpha, 1.0)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        cm = 2 * a * mpmath.sqrt(1 - a * a)
        y = cm * cm / (2 * (1 + mpmath.sqrt(1 - cm * cm)))
        want = -((1 - y) * mpmath.log1p(-y) + y * mpmath.log(y)) / mpmath.log(2)
    assert abs(got - float(want)) <= 1e-12 * float(want)


def test_family_eof_broadcasts_and_validates():
    assert family_eof(SINGLET, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert family_eof(0.6, [0.0, 1 / 3]).tolist() == [0.0, 0.0]
    assert family_eof(KERNEL_ALPHAS[:, None], KERNEL_SHRINKS).shape == (201, 23)
    for alpha, s in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5)):
        with pytest.raises(ValueError):
            family_eof(alpha, s)


def test_scalar_routes_match_the_kernel():
    # the generic route, one clone at a time
    for alpha in (0.0, 0.3, SINGLET, 0.9, 1.0):
        state = psi_minus_family(alpha)
        for s1, s2 in ((1.0, 0.0), (0.8, 0.3), (0.6, 0.6)):
            e1, e2 = (concurrence(acm_clone(state, s)).eof for s in (s1, s2))
            want = 0.5 * (e1 + e2)
            got = acm_average(alpha, ShrinkParams(s1, s2))
            assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_two_copy_sweeps_are_bit_exact_against_one_kernel_call_per_copy(branch):
    # both copies go through one family_eof call; each value must keep the
    # bits of two separate calls, on grids that hold the degenerate ends
    grid = uniform_grid(41)
    s2s = np.clip(acm_boundary_s2(grid, branch), 0.0, 1.0)
    alphas = np.union1d(uniform_grid(21), [SINGLET])
    for alpha in alphas:
        series = acm_curve_sweep(grid, branch, alpha=alpha)
        want = 0.5 * (family_eof(alpha, grid) + family_eof(alpha, s2s))
        assert np.array_equal(series.columns[2], want), alpha
    assert series.columns[3][[0, -1]].tolist() == [branch == "upper", True]
    surface = acm_alpha_surface(alphas, grid, branch).columns[3]
    a = alphas[:, None]
    want = 0.5 * (family_eof(a, grid) + family_eof(a, s2s))
    assert np.array_equal(surface, want.ravel())


def test_region_grid_sides_match_shrink_params():
    # membership and flags are array expressions; they must agree with the
    # per-pair scalar answers everywhere, the region edge included
    for resolution in (41, 61):
        for s1, s2, value, flag in acm_region_grid(resolution, 0.7).iter_flat():
            params = ShrinkParams(s1, s2)
            inside = acm_region_value(params.s1, params.s2) <= CONSTRAINT_SLACK
            assert (value is not None) == inside, (s1, s2)
            assert flag is acm_degenerate(s1, s2), (s1, s2)


def test_boundary_sweeps_match_per_point_answers():
    grid = uniform_grid(41)
    for branch in ("upper", "lower"):
        rows = list(acm_curve_sweep(grid, branch, alpha=0.65).iter_flat())
        surface = list(acm_alpha_surface([0.65], grid, branch).iter_flat())
        for (s1, s2, value, flag), (_, _, s2b, value_b, flag_b) in zip(rows, surface):
            params = ShrinkParams(s1, min(max(acm_boundary_s2(s1, branch), 0.0), 1.0))
            assert s2 == s2b == params.s2
            assert flag is flag_b is acm_degenerate(s1, params.s2)
            assert abs(value - acm_average(0.65, params)) <= 1e-15
            assert value == value_b


def test_former_simpson_faults_are_within_their_estimates():
    # adaptive Simpson accepted values 59x (acm at 0.355) and 2.7-2.8x
    # (fig5 at s1 = 0.5) its tolerance away from these integrals
    tol = 1e-7
    res = mean_entanglement_acm(ShrinkParams(0.355, 0.355), tol)
    assert abs(res.value - mp_family_mean(0.355)) <= res.abs_error_estimate <= tol
    for branch in ("upper", "lower"):
        rows = list(acm_curve_sweep(uniform_grid(3), branch, alpha=None, tol=tol).iter_flat())
        for s1, s2, value, _ in rows:
            pair = mean_entanglement_acm(ShrinkParams(s1, s2), tol)
            want = (mp_family_mean(s1) + mp_family_mean(s2)) / 2
            assert abs(value - want) <= pair.abs_error_estimate <= tol, (branch, s1)
            assert abs(value - pair.value) <= 1e-15  # one array pass, same answers


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.0, 1.0), tol=st.sampled_from([1e-7, 1e-8, 1e-10]))
@example(s=0.0, tol=1e-10)
@example(s=1 / 3, tol=1e-10)
@example(s=math.nextafter(1 / 3, 1.0), tol=1e-10)
@example(s=1.0, tol=1e-10)
def test_family_mean_error_estimate_is_honest(s, tol):
    res = family_mean(s, tol)
    error = abs(mpmath.mpf(float(res.value)) - mp_family_mean(s))
    assert error <= res.abs_error_estimate <= tol


def test_family_mean_is_elementwise_and_zero_below_one_third():
    shrinks = np.array([[0.0, 0.2, 1 / 3], [0.5, 0.88, 1.0]])
    res = family_mean(shrinks, 1e-9)
    assert res.value.shape == res.abs_error_estimate.shape == (2, 3)
    assert res.value[0].tolist() == [0.0, 0.0, 0.0]
    for s, value in zip(shrinks.ravel(), res.value.ravel()):
        assert abs(value - float(family_mean(s, 1e-9).value)) <= 1e-15
    # evaluations count integrand nodes: n + 2n per shrink on the first rung
    assert res.evaluations == 6 * 3 * qclone.analysis.GL_LADDER[0]
    for s, tol in (
        (-0.1, 1e-7),
        (1.5, 1e-7),
        (0.5, 1e-12),
        (0.5, math.nan),
        (0.5, math.inf),
        (0.5, -math.inf),
    ):
        with pytest.raises(ValueError):
            family_mean(s, tol)


def test_family_mean_climbs_the_ladder_then_gives_up(monkeypatch):
    # the 2- and 4-point pair misses 1e-10 at s = 1; the 16/32 pair meets it
    monkeypatch.setattr(qclone.analysis, "GL_LADDER", (2, 16))
    res = family_mean(1.0, 1e-10)
    assert res.evaluations == 6 + 48
    assert abs(res.value - family_mean(1.0, 1e-10).value) == 0.0
    monkeypatch.setattr(qclone.analysis, "GL_LADDER", (2,))
    with pytest.raises(QuadratureConvergenceError, match="s = 1.0"):
        family_mean(1.0, 1e-10)


def test_mean_sweep_checks_the_region_over_the_whole_grid(monkeypatch):
    # boundary s2 always lies in the region; a broken boundary must not
    # slip through the array pass
    def broken(s1, branch):
        return np.where((s1 > 0.85) & (s1 < 0.95), 0.9, acm_boundary_s2(s1, branch))

    monkeypatch.setattr(qclone.analysis, "acm_boundary_s2", broken)
    with pytest.raises(ConstraintViolatedError, match=r"\(s1, s2\) = \(0\.9\d*, 0\.9\)"):
        acm_curve_sweep(uniform_grid(11), "upper", alpha=None)
