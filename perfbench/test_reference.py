"""Pins the benchmark's reference computations and its span recorder.

Run with:  PYTHONPATH=src python -m pytest perfbench -q
"""

import math

import mpmath
import numpy as np
import pytest

import check
import reference as ref
import spans

SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def _mp_eof(c):
    if c <= 0:
        return mpmath.mpf(0)
    y = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))
    x = 1 - y
    return -x * mpmath.log(x, 2) - y * mpmath.log(y, 2)


def _mp_mean(s):
    s = mpmath.mpf(s)

    def f(a):
        return _mp_eof(max(mpmath.mpf(0), 2 * s * a * mpmath.sqrt(1 - a * a) - (1 - s) / 2))

    theta1 = mpmath.asin(min((1 - s) / (2 * s), 1)) / 2
    points = [mpmath.sin(theta1), mpmath.sqrt(mpmath.mpf(1) / 2), mpmath.cos(theta1)]
    return mpmath.quad(f, points)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, rank):
    v = _random_unitary(rng, 4)[:, :rank]
    p = rng.dirichlet(np.ones(rank))
    return (v * p) @ v.conj().T


@pytest.mark.parametrize("s", [1.0, 0.9, 0.6, 0.355, 0.34])
def test_mean_eof_matches_mpmath_quad(s):
    with mpmath.workdps(30):
        want = float(_mp_mean(s))
    assert abs(ref.mean_eof(s) - want) <= 1e-13


def test_mean_eof_vanishes_at_and_below_one_third():
    assert ref.mean_eof(1.0 / 3.0) == 0.0
    assert ref.mean_eof(0.2) == 0.0


def test_paper_constants():
    assert abs(ref.mean_eof(1.0) - 0.59026) <= 1e-5
    assert abs(ref.mean_eof(ref.scm_shrink(2)) - 0.11747) <= 1e-5
    assert ref.mean_eof_pair(0.3, 0.9) == pytest.approx(0.5 * ref.mean_eof(0.9), abs=0)


def test_eof_from_concurrence_endpoints_and_naive_formula():
    assert ref.eof_from_concurrence(0.0) == 0.0
    assert ref.eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)
    c = np.linspace(0.05, 0.95, 19)
    x = (1 + np.sqrt(1 - c * c)) / 2
    naive = -x * np.log2(x) - (1 - x) * np.log2(1 - x)
    np.testing.assert_allclose(ref.eof_from_concurrence(c), naive, rtol=1e-12)


def test_generic_concurrence_follows_pure_state_law():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        c, eof, _ = ref.concurrence(np.outer(v, v.conj()))
        want = 2 * abs(v[0] * v[3] - v[1] * v[2])
        assert abs(c - want) <= 1e-7
        assert abs(eof - float(ref.eof_from_concurrence(want))) <= 2e-7


def test_generic_concurrence_is_local_unitary_invariant():
    rng = np.random.default_rng(2)
    for rank in (1, 2, 3, 4):
        for _ in range(10):
            rho = _random_state(rng, rank)
            u = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2))
            c, _, lam = ref.concurrence(rho)
            c2, _, lam2 = ref.concurrence(u @ rho @ u.conj().T)
            assert abs(c - c2) <= 1e-7
            np.testing.assert_allclose(lam, lam2, atol=1e-7)


def test_generic_concurrence_matches_family_closed_form_and_werner():
    for alpha in np.linspace(0, 1, 11):
        for s in (1.0, 0.8, 0.6, 0.4):
            c, _, _ = ref.concurrence(ref.shrink_clone(alpha, s))
            assert abs(c - float(ref.family_concurrence(alpha, s))) <= 1e-7
    for p in (0.2, 1 / 3, 0.5, 1.0):
        psi = ref.BELL[3]
        rho = p * np.outer(psi, psi.conj()) + (1 - p) / 4 * np.eye(4)
        assert abs(ref.concurrence(rho)[0] - max(0.0, 1.5 * p - 0.5)) <= 1e-7


def test_wzcm_reduced_matches_brute_force_partial_trace():
    rng = np.random.default_rng(3)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    full = sum(ci * np.kron(np.kron(b, b), e) for ci, b, e in zip(c, ref.BELL, np.eye(4)))
    t = full.reshape(4, 4, 4)
    brute = {
        "clone1": np.einsum("ajk,bjk->ab", t, t.conj()),
        "clone2": np.einsum("jak,jbk->ab", t, t.conj()),
        "machine": np.einsum("jka,jkb->ab", t, t.conj()),
    }
    for sub, want in brute.items():
        np.testing.assert_allclose(ref.wzcm_reduced(c, sub), want, atol=1e-14)


def test_boundary_region_and_degenerate_flags():
    s1 = np.linspace(0, 1, 101)
    for branch in ("upper", "lower"):
        s2 = ref.boundary_s2(s1, branch)
        unclipped = s2 > 0
        assert np.all(np.abs(ref.region_value(s1, s2)[unclipped]) <= 1e-12)
    assert ref.boundary_s2(0.6, "upper") == pytest.approx(0.6)
    inside, either = ref.region_answer(np.array([0.6, 0.0, 0.5]), np.array([0.6, 0.0, 0.5]))
    assert inside.tolist() == [True, False, True] and either.tolist() == [True, False, False]
    flags = ref.degenerate(np.array([1.0, 0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.5, 1.0]))
    assert flags.tolist() == [True, True, False, False]


def test_fig1_check_accepts_the_reference_and_rejects_a_small_error():
    alpha = np.linspace(0, 1, 11)
    wz = ref.family_eof(alpha, 1.0)
    sc = ref.family_eof(alpha, 0.6)
    lines = ["# command: fig1", "alpha,eof_wzcm,eof_scm"]
    lines += [f"{a:.9g},{w:.9g},{s:.9g}" for a, w, s in zip(alpha, wz, sc)]
    check.check_fig1({"grid_points": 11}, "\n".join(lines) + "\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + f",{sc[3] + 1e-7:.9g}"
    with pytest.raises(check.Mismatch):
        check.check_fig1({"grid_points": 11}, "\n".join(lines) + "\n")


def test_recorder_sees_nested_calls_and_uninstall_restores():
    qclone = pytest.importorskip("qclone")
    import qclone.entanglement as ent

    original = ent.concurrence
    recorder = spans.Recorder()
    patched = spans.install(recorder)
    try:
        assert qclone.concurrence is not original
        qclone.concurrence(ref.shrink_clone(0.6, 0.8))
    finally:
        spans.uninstall(patched)
    assert qclone.concurrence is original and ent.concurrence is original
    summary = recorder.summary(0, len(recorder))
    assert summary["entanglement.concurrence"]["calls"] == 1
    top = [i for i in range(len(recorder)) if recorder.parent[i] == -1]
    assert [recorder.names[recorder.name_id[i]] for i in top] == ["entanglement.concurrence"]
    total = summary["entanglement.concurrence"]["total_s"]
    self_sum = sum(v["self_s"] for v in summary.values())
    assert math.isclose(self_sum, total, rel_tol=1e-9)
