"""Quadrature, figure sweeps and alpha-averaged entanglement.

The alpha means are checked against a mechanical 100k-point midpoint rule
evaluated on the same integrands and against mpmath.quad at 30 digits.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qclone.analysis
from qclone.analysis import (
    QUAD_DEFAULT_TOL,
    QuadratureConvergenceError,
    family_eof,
    family_mean,
    mean_entanglement,
    mean_entanglement_acm,
)
from qclone.cloners import (
    CONSTRAINT_SLACK,
    MACHINES,
    ConstraintViolatedError,
    ShrinkParams,
    acm_boundary_s2,
    acm_degenerate,
    acm_region_value,
    clone,
    family_shrink,
)
from qclone.cli import main
from qclone.entanglement import concurrence, eof_from_concurrence
from qclone.states import psi_minus_family

from closed_forms import acm_clone_closed, concurrence_xstate, theta_family_mean
from figure_table import figure_table

SINGLET = 1 / math.sqrt(2)
#: 200 evenly spaced alphas plus the singlet.
KERNEL_ALPHAS = np.union1d(np.linspace(0.0, 1.0, 200), [SINGLET])
#: 21 evenly spaced shrinks plus the separability threshold 1/3 and s(M=3).
KERNEL_SHRINKS = np.union1d(np.linspace(0.0, 1.0, 21), [1 / 3, family_shrink("scm", 3)])


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


def test_entanglement_curve_wzcm_equals_input_entanglement():
    grid = np.linspace(0.0, 1.0, 51)
    for alpha, eof in zip(grid.tolist(), family_eof(grid, 1.0).tolist()):
        beta = math.sqrt(1 - alpha * alpha)
        assert abs(eof - eof_from_concurrence(2 * alpha * beta)) < 1e-12


def test_entanglement_curve_scm_peaks_at_maximal_input_entanglement():
    grid = np.linspace(0.0, 1.0, 101)
    curve = family_eof(grid, family_shrink("scm"))
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
    assert abs(sc.value - midpoint_rule(lambda a: family_eof(a, family_shrink("scm")))) < 1e-5


def test_halving_the_tolerance_is_self_consistent():
    for tol in (1e-5, 1e-6):
        coarse = mean_entanglement("scm", tol).value
        fine = mean_entanglement("scm", tol / 2).value
        assert abs(coarse - fine) <= tol


def test_symmetric_machines_never_raise_entanglement():
    # shrinking cannot create entanglement on the input family
    for alpha in np.linspace(0.0, 1.0, 41):
        e_in = eof_from_concurrence(2 * alpha * math.sqrt(1 - alpha * alpha))
        assert family_eof(alpha, family_shrink("scm")) <= e_in + 1e-12
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


def test_fig3_follows_the_upper_branch():
    argv = ["fig3", "--alpha", repr(SINGLET), "--grid-points", "41"]
    header, (s1, s2, value, degenerate), _ = figure_table(argv)
    assert header == ["s1", "s2", "avg_eof", "degenerate"]
    assert len(s1) == 41
    for a, b, v in zip(s1.tolist(), s2.tolist(), value.tolist()):
        assert abs(b - min(max(acm_boundary_s2(a, "upper"), 0.0), 1.0)) < 1e-15
        assert 0.0 <= v <= 1.0
    # endpoints are the degenerate identity/swap corners
    assert degenerate.tolist() == [True] + [False] * 39 + [True]


def test_fig3_minimum_sits_at_symmetric_point():
    # the grid contains 3/5 = 24/40
    _, (s1, _, value, _), _ = figure_table(["fig3", "--alpha", repr(SINGLET), "--grid-points", "41"])
    assert abs(s1[np.argmin(value)] - 3 / 5) < 1e-12
    # endpoints carry half the input entanglement: E = 1/2
    assert abs(value[0] - 0.5) < 1e-12
    assert abs(value[-1] - 0.5) < 1e-12


def test_fig5_at_the_corners_and_the_symmetric_point():
    # the grid 0, 0.2, ..., 1 contains 3/5
    argv = ["fig5", "--grid-points", "6", "--quad-tol", "1e-6"]
    header, (s1, _, value, mean_wz, mean_sc, _), _ = figure_table(argv)
    assert header == ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    sc = mean_entanglement("scm", 1e-6).value
    wz = mean_entanglement("wzcm", 1e-6).value
    assert mean_sc.tolist() == [sc] * 6 and mean_wz.tolist() == [wz] * 6
    assert abs(value[np.flatnonzero(np.abs(s1 - 3 / 5) < 1e-12)[0]] - sc) < 1e-5
    assert abs(value[0] - wz / 2.0) < 1e-5
    assert abs(value[-1] - wz / 2.0) < 1e-5


def test_mean_sweep_dips_at_the_symmetric_point():
    # along the upper branch the alpha-averaged value falls toward the
    # two-copy symmetric machine and rises again past it
    tol = 1e-7
    _, (s1, _, value, *_), _ = figure_table(["fig5", "--grid-points", "41", "--quad-tol", repr(tol)])
    pivot = [i for i, s in enumerate(s1.tolist()) if abs(s - 3 / 5) < 1e-12][0]
    values = value.tolist()
    slack = 2 * tol
    for i in range(pivot):
        assert values[i + 1] <= values[i] + slack
    for i in range(pivot, len(values) - 1):
        assert values[i + 1] >= values[i] - slack
    assert min(values) == values[pivot]


def test_scm_multiclone_entanglement_series():
    state = psi_minus_family(1 / math.sqrt(2))
    cs = [concurrence(clone(state, "scm", m)).concurrence for m in range(2, 9)]
    assert all(a >= b for a, b in zip(cs, cs[1:]))  # more copies, less entanglement
    assert cs[0] > cs[3] > 0.0  # M = 2..5 still entangled
    assert cs[4] == cs[5] == cs[6] == 0.0  # M >= 6 separable


def test_fig2_region_membership():
    _, (s1, s2, _, _), (_, _, outside, _) = figure_table(["fig2", "--alpha", "0.7", "--grid-points", "11"])
    cells = {(round(a, 6), round(b, 6)): not o for a, b, o in zip(s1, s2, outside)}
    assert cells[(0.5, 0.5)]
    assert not cells[(0.9, 0.9)]
    assert not cells[(0.0, 0.0)]
    assert cells[(1.0, 0.0)]  # degenerate corner evaluates
    assert len(cells) == 121


def test_fig2_interior_maximum_on_boundary():
    # the best average entanglement at fixed alpha is attained on the
    # boundary curve: for every interior admissible point some boundary
    # point does at least as well
    _, (_, _, value, _), (_, _, outside, _) = figure_table(
        ["fig2", "--alpha", repr(SINGLET), "--grid-points", "21"]
    )
    best_value = value[~outside].max()
    _, (_, _, boundary, _), _ = figure_table(["fig3", "--alpha", repr(SINGLET), "--grid-points", "201"])
    assert boundary.max() >= best_value - 1e-9


def test_fig4_layout():
    header, (alpha, s1, *_), _ = figure_table(["fig4", "--grid-points", "5"])
    assert header == ["alpha", "s1", "s2", "avg_eof", "degenerate"]
    grid = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(alpha, np.repeat(grid, 5))
    assert np.array_equal(s1, np.tile(grid, 5))


def test_default_tolerance_is_exposed():
    assert QUAD_DEFAULT_TOL == 1e-7


def test_family_eof_matches_xstate_closed_form():
    # independent route: the closed-form clone matrix and the X-state law
    got = family_eof(KERNEL_ALPHAS[:, None], KERNEL_SHRINKS[None, :])
    for i, alpha in enumerate(KERNEL_ALPHAS):
        for j, s in enumerate(KERNEL_SHRINKS):
            want = eof_from_concurrence(concurrence_xstate(acm_clone_closed(alpha, s)))
            assert abs(got[i, j] - want) <= 1e-12, (alpha, s)


#: the parameters each machine of the table is tested at, as keyword
#: arguments of family_shrink and clone.
MACHINE_PARAMETERS = {
    "wzcm": [{}],
    "scm": [{"clones": m} for m in range(2, 7)],
    "acm": [{"s": s} for s in KERNEL_SHRINKS.tolist()],
}


@pytest.mark.parametrize("machine", MACHINES)
def test_family_eof_matches_generic_pipeline(machine):
    # the kernel at the table's shrink against the generic singular-value
    # route on the clone the machine builds, for every row of the table
    cases = MACHINE_PARAMETERS[machine]
    shrinks = np.array([family_shrink(machine, **kwargs) for kwargs in cases])
    got = family_eof(KERNEL_ALPHAS[:, None], shrinks[None, :])
    for i, alpha in enumerate(KERNEL_ALPHAS):
        state = psi_minus_family(alpha)
        for j, kwargs in enumerate(cases):
            want = concurrence(clone(state, machine, **kwargs)).eof
            assert abs(got[i, j] - want) <= 1e-10, (alpha, kwargs)


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
    for alpha, s in ((1.5, 0.5), (0.5, -0.1), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError):
            family_eof(alpha, s)
    # one bad element inside an otherwise valid array, on either argument
    for bad in (math.nan, -0.1, 1.1):
        column = np.array([0.0, 0.5, bad, 1.0])
        for alpha, s in ((column, 0.5), (0.5, column), (column[:, None], column)):
            with pytest.raises(ValueError):
                family_eof(alpha, s)


def test_unchecked_kernel_matches_family_eof_bit_for_bit():
    # the figure commands call _family_eof on the grids they build; on each
    # input shape they pass it must give family_eof's exact bits
    grid = np.linspace(0.0, 1.0, 201)
    s2 = np.clip(acm_boundary_s2(grid, "lower"), 0.0, 1.0)
    shapes = (
        (grid, np.array([[1.0], [family_shrink("scm")]])),  # fig1
        (SINGLET, grid),  # fig2
        (0.6, np.array((grid, s2))),  # fig3
        (grid[:, None], np.array((grid, s2))[:, None, :]),  # fig4
    )
    for alpha, s in shapes:
        got = qclone.analysis._family_eof(alpha, s)
        want = family_eof(alpha, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_range_checks_reject_one_bad_element_in_an_array(bad):
    column = np.array([0.0, 0.4, bad, 1.0])
    with pytest.raises(ValueError):
        acm_boundary_s2(column, "upper")
    with pytest.raises(ValueError):
        family_mean(column)


def test_scalar_routes_match_the_kernel():
    # the generic route, one clone at a time
    for alpha in (0.0, 0.3, SINGLET, 0.9, 1.0):
        state = psi_minus_family(alpha)
        for s1, s2 in ((1.0, 0.0), (0.8, 0.3), (0.6, 0.6)):
            e1, e2 = (concurrence(clone(state, "acm", s=s)).eof for s in (s1, s2))
            want = 0.5 * (e1 + e2)
            got = acm_average(alpha, ShrinkParams(s1, s2))
            assert abs(got - want) <= 1e-10


@pytest.mark.parametrize("branch", ["upper", "lower"])
def test_two_copy_sweeps_are_bit_exact_against_one_kernel_call_per_copy(branch):
    # both copies go through one family_eof call; each value must keep the
    # bits of two separate calls, on grids that hold the degenerate ends
    grid = np.linspace(0.0, 1.0, 41)
    s2s = np.clip(acm_boundary_s2(grid, branch), 0.0, 1.0)
    for alpha in np.union1d(np.linspace(0.0, 1.0, 21), [SINGLET]).tolist():
        argv = ["fig3", "--alpha", repr(alpha), "--branch", branch, "--grid-points", "41"]
        _, (_, _, value, degenerate), _ = figure_table(argv)
        want = 0.5 * (family_eof(alpha, grid) + family_eof(alpha, s2s))
        assert np.array_equal(value, want), alpha
    assert degenerate[[0, -1]].tolist() == [branch == "upper", True]
    _, (_, _, _, surface, _), _ = figure_table(["fig4", "--branch", branch, "--grid-points", "41"])
    a = grid[:, None]
    want = 0.5 * (family_eof(a, grid) + family_eof(a, s2s))
    assert np.array_equal(surface, want.ravel())


def test_region_grid_sides_match_shrink_params():
    # membership and flags are array expressions; they must agree with the
    # per-pair scalar answers everywhere, the region edge included
    for resolution in ("41", "61"):
        argv = ["fig2", "--alpha", "0.7", "--grid-points", resolution]
        _, (s1s, s2s, _, flags), (_, _, outside, _) = figure_table(argv)
        for s1, s2, out, flag in zip(s1s.tolist(), s2s.tolist(), outside.tolist(), flags.tolist()):
            params = ShrinkParams(s1, s2)
            inside = acm_region_value(params.s1, params.s2) <= CONSTRAINT_SLACK
            assert (not out) == inside, (s1, s2)
            assert flag is acm_degenerate(s1, s2), (s1, s2)


def test_boundary_sweeps_match_per_point_answers():
    # fig3 at one alpha of fig4's grid against fig4's rows at that alpha
    grid = np.linspace(0.0, 1.0, 41)
    alpha = float(grid[26])  # 0.65
    for branch in ("upper", "lower"):
        argv = ["--branch", branch, "--grid-points", "41"]
        _, curve, _ = figure_table(["fig3", "--alpha", repr(alpha), *argv])
        _, surface, _ = figure_table(["fig4", *argv])
        rows = zip(*(c.tolist() for c in curve))
        surface_rows = zip(*(c[surface[0] == alpha].tolist() for c in surface[1:]))
        for (s1, s2, value, flag), (s1b, s2b, value_b, flag_b) in zip(rows, surface_rows, strict=True):
            params = ShrinkParams(s1, min(max(acm_boundary_s2(s1, branch), 0.0), 1.0))
            assert s1 == s1b
            assert s2 == s2b == params.s2
            assert flag is flag_b is acm_degenerate(s1, params.s2)
            assert abs(value - acm_average(alpha, params)) <= 1e-15
            assert value == value_b


def test_former_simpson_faults_are_within_their_estimates():
    # adaptive Simpson accepted values 59x (acm at 0.355) and 2.7-2.8x
    # (fig5 at s1 = 0.5) its tolerance away from these integrals
    tol = 1e-7
    res = mean_entanglement_acm(ShrinkParams(0.355, 0.355), tol)
    assert abs(res.value - mp_family_mean(0.355)) <= res.abs_error_estimate <= tol
    for branch in ("upper", "lower"):
        argv = ["fig5", "--branch", branch, "--grid-points", "3", "--quad-tol", repr(tol)]
        _, (s1s, s2s, values, *_), _ = figure_table(argv)
        for s1, s2, value in zip(s1s.tolist(), s2s.tolist(), values.tolist()):
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
@example(s=1 / 3 + 1e-9, tol=1e-10)
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
    # evaluations count integrand nodes: n + 2n per shrink
    assert res.evaluations == 6 * 3 * qclone.analysis.GL_ORDER
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


def test_family_mean_bits_do_not_depend_on_the_batch():
    # a BLAS matrix product picks its kernel by the number of rows, which
    # moved last bits of values and estimates between batch sizes
    shrinks = np.random.default_rng(0).uniform(0.0, 1.0, 3000)
    batch = family_mean(shrinks)
    singles = [family_mean(s) for s in shrinks]
    assert batch.value.tolist() == [float(r.value) for r in singles]
    assert batch.abs_error_estimate.tolist() == [float(r.abs_error_estimate) for r in singles]


def test_family_mean_matches_the_angle_variable_route():
    # the same mean through alpha = sin(theta) and its own rules: 20001 even
    # shrinks, plus 2000 each within 1e-15 to 1e-1 of the threshold 1/3 and of 1
    near = np.geomspace(1e-15, 1e-1, 2000)
    shrinks = np.concatenate((np.linspace(0.0, 1.0, 20001), 1 / 3 + near, 1.0 - near))
    res = family_mean(shrinks)
    want = theta_family_mean(shrinks)
    assert np.abs(res.value - want.value).max() <= 1e-15
    assert res.evaluations == want.evaluations == 48 * shrinks.size


#: the bound the family_mean estimate must stay below: at GL_ORDER 16 the
#: largest estimate on CERTIFIED_SHRINKS is 9.77e-13 (4.33e-12 at 14,
#: 2.61e-11 at 12), about half the bound, and far inside QUAD_MIN_TOL.
ESTIMATE_BOUND = 2e-12
#: 20001 even shrinks, 500 from just below to just above the threshold
#: 1/3, and 500 in the last 1e-6 before 1.
CERTIFIED_SHRINKS = np.concatenate((
    np.linspace(0.0, 1.0, 20001),
    np.linspace(1 / 3 - 1e-9, 1 / 3 + 1e-6, 500),
    np.linspace(1.0 - 1e-6, 1.0, 500),
))


def largest_estimate() -> float:
    return float(family_mean(CERTIFIED_SHRINKS).abs_error_estimate.max())


def test_family_mean_estimate_stays_below_a_fixed_bound():
    assert largest_estimate() < ESTIMATE_BOUND


@pytest.mark.parametrize("order", [12, 14])
def test_the_estimate_bound_fails_at_a_lower_order(monkeypatch, order):
    # the bound is tight enough to tell GL_ORDER 16 from the orders below it
    monkeypatch.setattr(qclone.analysis, "GL_ORDER", order)
    assert largest_estimate() >= ESTIMATE_BOUND


#: the shrinks where c0 = max(0, 1.5 s - 0.5) and T = sqrt(c0/s) start.
EDGE_SHRINKS = [0.0, 1 / 3, math.nextafter(1 / 3, 1.0), 1 / 3 + 1e-15, 1.0]


def test_family_mean_at_the_edges_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        singles = [family_mean(s) for s in EDGE_SHRINKS]
        batch = family_mean(np.array(EDGE_SHRINKS))
    assert batch.value.tolist() == [float(r.value) for r in singles]
    assert batch.abs_error_estimate.tolist() == [float(r.abs_error_estimate) for r in singles]
    assert batch.value[:2].tolist() == [0.0, 0.0]


def test_family_mean_gives_up_above_its_tolerance(monkeypatch):
    # the 2- and 4-point pair misses 1e-10 at s = 1
    monkeypatch.setattr(qclone.analysis, "GL_ORDER", 2)
    with pytest.raises(QuadratureConvergenceError, match="s = 1.0"):
        family_mean(1.0, 1e-10)


@pytest.mark.parametrize(
    "shrinks",
    [[math.nan], [0.2, math.nan, 0.9], [[0.5, 1.0], [math.nan, 0.0]], [math.nan, math.nan]],
)
def test_range_checks_reject_nan_without_a_warning(shrinks):
    column = np.array(shrinks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^shrink factors must lie in \[0, 1\]$"):
            family_mean(column)
        with pytest.raises(ValueError, match=r"^alpha and s must lie in \[0, 1\]$"):
            family_eof(0.5, column)
        with pytest.raises(ValueError, match=r"^s1 must lie in \[0, 1\], got "):
            acm_boundary_s2(column, "lower")


def test_family_mean_of_no_shrinks():
    res = family_mean(np.array([]))
    assert res.value.shape == res.abs_error_estimate.shape == (0,)
    assert res.evaluations == 0
    assert family_eof(np.array([]), 0.5).shape == (0,)
    assert acm_boundary_s2(np.array([]), "upper").shape == (0,)


def test_family_mean_gives_up_on_a_nan_integrand(monkeypatch):
    # NaN fails the tolerance test, as it fails the range check; the first
    # shrink with a NaN estimate is named
    monkeypatch.setattr(qclone.analysis, "_wootters_eof", lambda c: np.full(c.shape, math.nan))
    with pytest.raises(QuadratureConvergenceError, match=r"s = 0\.2: estimate nan above tol"):
        family_mean(np.array([0.2, 0.5, 0.9]))


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("points", [3, 201, 1001])
def test_fig5_means_equal_one_family_mean_call_per_shrink(branch, points):
    # fig5 sums the copies' means and takes the reference means from batched
    # calls; each value must keep the bits of a call on its shrink alone
    argv = ["fig5", "--branch", branch, "--grid-points", str(points)]
    _, (s1s, s2s, acm, wz, sc, _), _ = figure_table(argv)

    def single(s):
        return float(family_mean(s).value)

    assert acm.tolist() == [0.5 * (single(a) + single(b)) for a, b in zip(s1s, s2s)]
    assert wz.tolist() == [single(family_shrink("wzcm"))] * points
    assert sc.tolist() == [single(family_shrink("scm"))] * points


def test_mean_sweep_checks_the_region_over_the_whole_grid(monkeypatch):
    # boundary s2 always lies in the region; a broken boundary must not
    # slip through the array pass.  The figures call the unchecked kernel,
    # so the broken one is built from the kernel it replaces
    kernel = qclone.cloners._acm_boundary_s2

    def broken(s1, branch):
        return np.where((s1 > 0.85) & (s1 < 0.95), 0.9, kernel(s1, branch))

    monkeypatch.setattr(qclone.cloners, "_acm_boundary_s2", broken)
    with pytest.raises(ConstraintViolatedError, match=r"\(s1, s2\) = \(0\.9\d*, 0\.9\)"):
        main(["fig5", "--grid-points", "11"])
