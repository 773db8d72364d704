"""Each per-call path that calls a numpy C entry point in place of the
Python-level wrapper around it keeps the wrapper's results.

The wrapper forms are copied here as the library had them: np.einsum and
ndarray.max in family_mean, ndarray.min and .max in _in_unit_interval,
np.outer in clone, and np.flatnonzero and np.full in fig2's index.  Values
must agree bit for bit, verdicts decision for decision.
tests/test_surface.py counts the wrapper frames that these paths enter.
The acm region check, which once went through np.ravel and
np.flatnonzero, is plain float arithmetic in qclone._constants; its
message must still be the one the array form gave.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import qclone._commands
import qclone._constants
import qclone.analysis
from qclone.analysis import QuadratureConvergenceError, family_mean
from qclone.cloners import (
    CONSTRAINT_SLACK,
    ConstraintViolatedError,
    _in_unit_interval,
    acm_region_value,
    clone,
    family_shrink,
)
from qclone.states import psi_minus_family

from test_analysis import CERTIFIED_SHRINKS


def wrapper_family_mean(s):
    """family_mean's value, estimate and verdict through np.einsum and
    ndarray.max, for shrinks in [0, 1]."""
    s = np.asarray(s, dtype=float)
    col = s.reshape(-1, 1)
    c0 = np.maximum(1.5 * col - 0.5, 0.0)
    g, w = qclone.analysis._gl_rules(qclone.analysis.GL_ORDER)
    q = np.einsum("ij,jk->ik", qclone.analysis._wootters_eof(c0 * g), w)
    q *= np.sqrt(c0 / np.maximum(col, 1.0 / 3.0))
    value = q[:, 1].reshape(s.shape)
    err = (np.abs(q[:, 1] - q[:, 0]) + qclone.analysis.GL_ROUNDOFF).reshape(s.shape)
    return value, err, err.max(initial=0.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "shrinks",
    [
        CERTIFIED_SHRINKS,
        np.random.default_rng(1).uniform(0.0, 1.0, 3001),
        np.array([1.0, 0.0, 1 / 3, 0.6, 0.6, math.nextafter(1 / 3, 1.0)]),
        np.array([[0.9, 0.2], [0.5, 1.0]]),
        np.array(0.75),
        np.array([]),
    ],
    ids=["certified", "uniform", "mixed", "2-d", "0-d", "empty"],
)
def test_family_mean_keeps_the_einsum_bits(shrinks):
    res = family_mean(shrinks)
    value, err, _ = wrapper_family_mean(shrinks)
    assert same_bits(res.value, value)
    assert same_bits(res.abs_error_estimate, err)


def test_family_mean_tolerance_verdict_matches_the_method_form(monkeypatch):
    # the estimates sit far below the 1e-10 floor on tol, so lift the floor
    # to put tol on the largest estimate and one step below it
    monkeypatch.setattr(qclone._constants, "QUAD_MIN_TOL", 0.0)
    shrinks = np.array([0.2, 0.6, 0.95])
    _, _, worst = wrapper_family_mean(shrinks)
    family_mean(shrinks, worst)
    with pytest.raises(QuadratureConvergenceError):
        family_mean(shrinks, math.nextafter(worst, 0.0))


#: inputs on and around the edges of [0, 1], and the shapes with no entry or no axis.
UNIT_CASES = [
    [math.nan],
    [-0.0],
    [0.0],
    [1.0],
    [math.nextafter(1.0, 2.0)],
    [-5e-324],
    [0.0, 0.5, 1.0],
    [0.5, math.nan, 0.5],
    [[1.0, -0.0], [0.25, 0.75]],
    [],
    0.5,
    math.nan,
    -0.0,
    math.nextafter(1.0, 2.0),
]


@pytest.mark.parametrize("x", UNIT_CASES, ids=repr)
def test_unit_interval_verdict_matches_the_method_form(x):
    a = np.asarray(x, dtype=float)
    want = not a.size or bool(a.min() >= 0.0 and a.max() <= 1.0)
    assert _in_unit_interval(a) is want


def wrapper_region_message(s1, s2) -> str | None:
    excess = np.ravel(acm_region_value(s1, s2))
    outside = np.flatnonzero(excess > CONSTRAINT_SLACK)
    if not outside.size:
        return None
    k = outside[0]
    return (
        f"(s1, s2) = ({float(np.ravel(s1)[k])!r}, {float(np.ravel(s2)[k])!r}) "
        f"violates the region constraint by {float(excess[k])!r}"
    )


@pytest.mark.parametrize(
    "s1, s2",
    [
        (0.9, 0.9),
        (0.7, 0.48),
        (0.0, 1.0),
        (np.float64(0.95), np.float64(0.6)),
    ],
)
def test_region_check_message_matches_the_wrapper_form(s1, s2):
    want = wrapper_region_message(s1, s2)
    if want is None:
        qclone._constants.check_region(s1, s2)
    else:
        with pytest.raises(ConstraintViolatedError) as info:
            qclone._constants.check_region(s1, s2)
        assert str(info.value) == want


GOLDEN_ALPHAS = [0.0, 0.3, 0.6, 0.7061067811865475, 0.7071067811865475, 0.7081067811865475, 1.0]


@pytest.mark.parametrize(
    "machine, clones, s",
    [("wzcm", None, None), ("scm", None, None), ("scm", 5, None), ("acm", None, 0.8),
     ("acm", None, 0.0), ("acm", None, 1.0)],
)
def test_clone_keeps_the_outer_product_bits(machine, clones, s):
    for alpha in GOLDEN_ALPHAS:
        state = psi_minus_family(alpha)
        got = clone(state, machine, clones, s)
        if machine == "wzcm":
            # no outer product on this path: its mixture must stay as it was
            c = qclone.states.BELL_MATRIX.conj() @ state
            want = np.zeros((4, 4), dtype=np.complex128)
            for weight, b in zip((c.conj() * c).real, qclone.states.BELL_MATRIX):
                if weight != 0.0:
                    want = want + weight * np.outer(b, b.conj())
        else:
            v = np.asarray(state, dtype=np.complex128)
            shrink = family_shrink(machine, clones, s)
            identity = np.eye(4, dtype=np.complex128)
            want = shrink * np.outer(v, v.conj()) + ((1.0 - shrink) / 4.0) * identity
        assert same_bits(got, want), (machine, alpha)


@pytest.mark.parametrize("points", [2, 14, 201])
@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_fig2_index_matches_the_wrapper_form(points, alpha):
    args = SimpleNamespace(alpha=alpha, grid_points=points)
    _, columns = qclone._commands._cmd_fig2(args)
    index = columns[2][1]
    grid = np.linspace(0.0, 1.0, points)
    kept = np.flatnonzero(acm_region_value(grid[:, None], grid) <= CONSTRAINT_SLACK)
    want = np.full(points * points, -1)
    want[kept] = np.arange(kept.size)
    assert same_bits(index, want)
