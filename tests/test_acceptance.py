"""Release gate: every shipped guarantee checked at its stated tolerance.

Run with -s to see one verdict line per criterion; without -s the lines
still surface for any failing criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np

from qclone.cli import main
from qclone.cloners import acm_boundary_s2, clone
from qclone.entanglement import SIGMA_Y_PAIR, concurrence, concurrence_xstate, fidelity
from qclone.states import BELL_MATRIX, psi_minus_family

from closed_forms import BELL_ORDER, acm_clone_closed, bell_state, wzcm_clone_closed

SINGLET_ALPHA = 1.0 / math.sqrt(2.0)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name}"


def _run_cli(args):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qclone", *args],
        capture_output=True,
        text=True,
        check=True,
    )
    elapsed = time.perf_counter() - start
    data_lines = [
        l for l in proc.stdout.splitlines() if l and not l.startswith("#")
    ]
    return data_lines, elapsed


def test_criterion_01_mean_entanglement_constants():
    lines, t_wz = _run_cli(["mean", "--machine", "wzcm"])
    value_wz = float(lines[1].split(",")[0])
    lines, t_sc = _run_cli(["mean", "--machine", "scm"])
    value_sc = float(lines[1].split(",")[0])
    ok = (
        abs(value_wz - 0.59026) <= 1e-4
        and abs(value_sc - 0.11747) <= 1e-4
        and t_wz < 5.0
        and t_sc < 5.0
    )
    _report(1, "mean entanglement constants", ok)


def test_criterion_02_singlet_reduction_factor():
    eof = concurrence(clone(psi_minus_family(SINGLET_ALPHA), "scm")).eof
    _report(2, "singlet reduction factor", 0.245 <= eof <= 0.255)


def test_criterion_03_wzcm_preservation():
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 201):
        state = psi_minus_family(alpha)
        e_in = concurrence(np.outer(state, state.conj())).eof
        e_out = concurrence(clone(state, "wzcm")).eof
        worst = max(worst, abs(e_out - e_in))
    _report(3, "wzcm preservation", worst <= 1e-10)


def test_criterion_04_wzcm_fidelity_extremes():
    ok = True
    # the overlap of a clone with the input, as `qclone entangle` reports it
    for which in BELL_ORDER:
        b = bell_state(which)
        ok = ok and abs(fidelity(b, clone(b, "wzcm")) - 1.0) <= 1e-12
    for bits in range(8):
        coeffs = np.array(
            [0.5, *(0.5 if bits >> i & 1 else -0.5 for i in range(3))]
        )
        state = BELL_MATRIX.T @ coeffs
        ok = ok and abs(fidelity(state, clone(state, "wzcm")) - 0.25) <= 1e-12
    _report(4, "wzcm fidelity extremes", ok)


def test_criterion_05_clone_count_threshold():
    state = psi_minus_family(SINGLET_ALPHA)
    cs = {m: concurrence(clone(state, "scm", m)).concurrence for m in range(2, 9)}
    ok = all(cs[m] > 0.0 for m in (2, 3, 4, 5))
    ok = ok and all(abs(cs[m]) <= 1e-12 for m in (6, 7, 8))
    _report(5, "clone count threshold", ok)


def test_criterion_06_closed_form_equivalence():
    worst = 0.0
    exact = True
    for alpha in np.linspace(0.0, 1.0, 101):
        state = psi_minus_family(alpha)
        worst = max(
            worst,
            np.max(np.abs(clone(state, "wzcm") - wzcm_clone_closed(alpha))),
            np.max(np.abs(clone(state, "scm") - acm_clone_closed(alpha, 3 / 5))),
        )
        for s in np.linspace(0.0, 1.0, 21):
            worst = max(
                worst,
                np.max(np.abs(clone(state, "acm", s=s) - acm_clone_closed(alpha, s))),
            )
        exact = exact and np.array_equal(clone(state, "acm", s=3 / 5), clone(state, "scm"))
    _report(6, "closed form equivalence", worst <= 1e-12 and exact)


def test_criterion_07_boundary_geometry():
    # the raw curve value is a root of the constraint quadratic even where
    # the lower branch leaves the unit square
    worst = 0.0
    for s1 in np.linspace(0.0, 1.0, 101):
        for branch in ("upper", "lower"):
            s2 = acm_boundary_s2(s1, branch)
            u = 1.0 - s1 - s2
            value = 4.0 * u * u - (1.0 - s1) * (1.0 - s2)
            worst = max(worst, abs(value))
    ok = worst <= 1e-12
    ok = ok and abs(acm_boundary_s2(3 / 5, "upper") - 3 / 5) <= 1e-12
    ok = ok and acm_boundary_s2(1.0, "upper") == 0.0
    ok = ok and acm_boundary_s2(0.0, "upper") == 1.0
    _report(7, "boundary geometry", ok)


def _figure_minimum(argv, path):
    """(s1, value) of the row with the least value in a figure's CSV,
    written by the CLI to path; the value is the third column."""
    assert main([*argv, "--output", str(path)]) == 0
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]  # after the header
    return min(((float(r[0]), float(r[2])) for r in rows), key=lambda r: r[1])


def test_criterion_08_figure_shape_properties(tmp_path):
    path = tmp_path / "fig.csv"
    fig3 = ["fig3", "--branch", "upper", "--alpha", repr(SINGLET_ALPHA), "--grid-points", "201"]
    s1_min, v_min = _figure_minimum(fig3, path)
    scm_singlet = concurrence(clone(psi_minus_family(SINGLET_ALPHA), "scm")).eof
    ok = abs(s1_min - 3 / 5) <= 1e-12 and abs(v_min - scm_singlet) <= 1e-3

    fig5 = ["fig5", "--branch", "upper", "--quad-tol", "1e-7", "--grid-points", "201"]
    s1_min5, v_min5 = _figure_minimum(fig5, path)
    ok = ok and abs(s1_min5 - 3 / 5) <= 1e-12 and abs(v_min5 - 0.11747) <= 1e-3
    _report(8, "figure shape properties", ok)


def test_criterion_09_oracle_suite():
    worst_x = 0.0
    for alpha in np.linspace(0.0, 1.0, 101):
        state = psi_minus_family(alpha)
        outputs = [
            clone(psi_minus_family(alpha), "wzcm"),
            clone(state, "scm"),
            clone(state, "scm", 5),
            clone(state, "acm", s=0.9),
            clone(state, "acm", s=0.5),
            clone(state, "acm", s=0.1),
        ]
        for rho in outputs:
            gap = abs(concurrence(rho).concurrence - concurrence_xstate(rho))
            worst_x = max(worst_x, gap)

    rng = np.random.default_rng(90210)
    worst_pure = 0.0
    for _ in range(1000):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        want = abs(v.conj() @ SIGMA_Y_PAIR @ v.conj())
        got = concurrence(np.outer(v, v.conj())).concurrence
        worst_pure = max(worst_pure, abs(got - want))
    _report(9, "oracle suite", worst_x <= 1e-9 and worst_pure <= 1e-9)


def test_criterion_10_reproducibility(tmp_path):
    commands = [
        ["fig1", "--grid-points", "51"],
        ["fig2", "--grid-points", "11"],
        ["fig3", "--grid-points", "21"],
        ["fig4", "--grid-points", "5"],
        ["fig5", "--grid-points", "5", "--quad-tol", "1e-6"],
    ]
    ok = True
    for n, argv in enumerate(commands):
        a = tmp_path / f"{n}a.csv"
        b = tmp_path / f"{n}b.csv"
        for path in (a, b):
            subprocess.run(
                [sys.executable, "-m", "qclone", *argv, "--output", str(path)],
                capture_output=True,
                check=True,
            )
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(10, "reproducibility", ok)
