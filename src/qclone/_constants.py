"""The choices, defaults and input rules that the library and the CLI share.

It imports no library module and no numpy.  Each input rule is written here
once, as a function that raises ValueError: the library calls it where it
checks that input, and the CLI front applies it to a parsed value first.
"""

import math

#: the machines of the table, in the order the CLI offers them.
MACHINES = ("wzcm", "scm", "acm")
#: the two branches of the acm region's boundary curve.
BRANCHES = ("upper", "lower")
#: default absolute tolerance of the quadratures.
QUAD_DEFAULT_TOL = 1e-7
#: tolerances tighter than this are rejected as unreachable in float64.
QUAD_MIN_TOL = 1e-10
#: slack accepted when testing the asymmetric-cloner constraint.
CONSTRAINT_SLACK = 1e-12
#: default number of grid points for figure sweeps.
GRID_POINTS_DEFAULT = 201
#: largest accepted --grid-points: at 1001, fig2 and fig4 write a million
#: rows (31 MB of CSV for fig2); in process to a file, fig2 took 0.32-0.38 s
#: (alpha 1/sqrt(2) and 0.9) and fig4 0.44-0.50 s (both branches; best of 5,
#: twice each, shared 2-vCPU Xeon host).
GRID_POINTS_MAX = 1001


class ConstraintViolatedError(ValueError):
    """Raised when a shrink-factor pair falls outside the allowed region."""


def check_unit(name: str, x: float) -> None:
    """The float ``x``, called ``name``, lies in [0, 1]; NaN does not."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")


def check_clones(count) -> None:
    """scm's clone count: an integer (a numpy one too, not a bool), at least 2."""
    if isinstance(count, bool) or not hasattr(count, "__index__"):
        raise ValueError(f"clone count must be an integer, got {count!r}")
    if count < 2:
        raise ValueError(f"clone count must be at least 2, got {count}")


def check_machine_args(machine: str, clones, s, names=("machine", "clones", "s")) -> None:
    """Only scm takes a clone count, and only acm a shrink s, which it needs;
    ``names`` are the words for the machine, the count and s."""
    what, count, shrink = names
    if machine not in MACHINES:
        raise ValueError(f"{what} must be one of {MACHINES}, got {machine!r}")
    if clones is not None and machine != "scm":
        raise ValueError(f"{count} only applies to {what} scm")
    if s is not None and machine != "acm":
        raise ValueError(f"{shrink} only applies to {what} acm")
    if machine == "acm" and s is None:
        raise ValueError(f"{what} acm needs {shrink}")


def check_mean_args(machine: str, s1, s2) -> None:
    """mean's flags: acm needs both shrinks, and no other machine takes one."""
    if machine == "acm":
        if s1 is None or s2 is None:
            raise ValueError("--machine acm needs both --s1 and --s2")
    elif s1 is not None or s2 is not None:
        raise ValueError("--s1/--s2 only apply to --machine acm")


def check_tol(tol: float) -> None:
    """A quadrature tolerance is finite and at least QUAD_MIN_TOL."""
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {tol!r}")
    if tol < QUAD_MIN_TOL:
        raise ValueError(f"tolerance {tol!r} below the {QUAD_MIN_TOL:g} floor")


def check_grid_points(n: int) -> None:
    if n < 2:
        raise ValueError("--grid-points must be at least 2")
    if n > GRID_POINTS_MAX:
        raise ValueError(f"--grid-points must be at most {GRID_POINTS_MAX}")


def acm_region_value(s1, s2):
    """4(1-s1-s2)^2 - (1-s1)(1-s2) elementwise; non-positive inside the region."""
    u = 1.0 - s1 - s2
    return 4.0 * u * u - (1.0 - s1) * (1.0 - s2)


def check_region(s1: float, s2: float) -> None:
    """The float pair (s1, s2) lies in the acm region, up to CONSTRAINT_SLACK."""
    excess = acm_region_value(s1, s2)
    if excess > CONSTRAINT_SLACK:
        raise ConstraintViolatedError(
            f"(s1, s2) = ({float(s1)!r}, {float(s2)!r}) "
            f"violates the region constraint by {float(excess)!r}"
        )
