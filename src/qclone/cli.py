"""Command-line interface emitting deterministic CSV data series.

Output format, shared by every command: `# key: value` comment lines
recording the exact configuration, one header row naming the columns,
then data rows.  The comment lines are `# command: NAME`, then one line
per flag other than --output whose value is not None, keyed by its
argparse name (`--grid-points` is `grid_points`), in the order the
command declares its flags, floats by repr; an unset scm --clones is
written as the 2 it stands for.  Fields are comma-separated, floats carry
9 significant digits (mean's error estimate 2, rounded up), line endings
are Unix.  Identical flags produce identical bytes.  Every command returns
its table, (header, columns), before a byte is written, so numeric and
usage failures write nothing; main then formats and writes the rows
BLOCK_ROWS at a time, never held as one string.

Flags are parsed at the subcommand: when the first argument names a
command, that command's parser reads the rest, and the top-level parser
only handles a missing or unknown command, -h, and reports arguments the
subcommand left over, with the messages and exit codes of one full parse.

--output PATH rewrites the file in place: an existing file keeps its
inode and its mode, so hard links and symlinks to it see the new CSV; a
new one gets 0o666 less the umask.  The CSV is written over the old bytes from the
start and the file is then cut to the new length, so a failed write
leaves a prefix of the new CSV, never new bytes followed by old ones.
The rewrite is not atomic and nothing is fsynced; to replace a file
atomically, write to a new path and rename it over the old one.

Exit codes: 0 on success, 1 when a quadrature, an eigensolve or the
concurrence SVD fails to converge (the diagnostic names the failing
computation) and when writing the CSV fails (it names the output, and may
leave part of the CSV written), 2 on flag validation errors and on an
--output path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import math
import os
import re
import stat
import sys
from typing import Iterator, TextIO

import numpy as np

from . import analysis, cloners, entanglement, qmath, states

PROG = "qclone"

_SINGLET_ALPHA = 1.0 / math.sqrt(2.0)
#: largest accepted --grid-points: fig2 and fig4 write n^2 rows, and at
#: 1001 (a million rows, 31 MB of CSV for fig2) they take 1-2 s.
GRID_POINTS_MAX = 1001
#: rows formatted and written at a time.
BLOCK_ROWS = 4096
#: row-template field per dtype kind of a numpy column.
_SPECS = {"f": "%.9g", "i": "%d"}
#: CSV words of False and True; object dtype, so indexing yields str.
_BOOL_WORDS = np.array(["false", "true"], dtype=object)


def _texts(values: np.ndarray) -> list[str]:
    """Each value formatted by %.9g, in one % over a joined template."""
    return ("%.9g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _render(command: str, config, header: list[str], columns) -> Iterator[str]:
    """The CSV of a table of columns: comment and header lines, then
    blocks of up to BLOCK_ROWS rows, each formatted by one % over a row
    template: %.9g for float columns, %d for int columns, true/false for
    bool columns.  A column is a numpy array, or a pair (values, index)
    standing for values[index]: each value is formatted once and each row
    takes its text by index, and index -1 prints outside_region, so a cell
    with no value is never formatted.  The repeat and tile layout of a 2-D
    sweep gives (grid, index) pairs; fig2's avg_eof is (in-region
    averages, index) with -1 at each pair outside the acm region.
    """
    lines = [f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}: {value!r}" if isinstance(value, float) else f"# {key}: {value}")
    lines.append(",".join(header))
    yield "\n".join(lines) + "\n"
    # bool and (values, index) columns become (table of texts, index)
    coded = [
        (np.array(_texts(c[0]) + ["outside_region"], dtype=object), c[1])
        if isinstance(c, tuple)
        else (_BOOL_WORDS, c.astype(int)) if c.dtype.kind == "b" else None
        for c in columns
    ]
    row = ",".join(
        "%s" if code is not None else _SPECS[c.dtype.kind] for c, code in zip(columns, coded)
    ) + "\n"
    k = len(columns)
    n = len(coded[0][1]) if coded[0] is not None else len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        cells = [None] * (m * k)
        for j, (col, code) in enumerate(zip(columns, coded)):
            if code is None:
                cells[j::k] = col[lo : lo + m].tolist()
            else:
                table, index = code
                cells[j::k] = table[index[lo : lo + m]].tolist()
        yield row * m % tuple(cells)


class _UsageError(Exception):
    pass


def _open_output(path: str | None):
    """stdout, or the file at ``path`` opened for rewriting in place; an
    unopenable path is a usage error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        # no O_TRUNC: truncating a file that holds data to length 0 makes
        # ext4 start writeback at close; the stale tail is cut on exit
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise _UsageError(f"--output: {exc.strerror}: {path!r}") from exc
    return _rewrite(fd)


@contextlib.contextmanager
def _rewrite(fd: int) -> Iterator[TextIO]:
    """A text stream writing over ``fd`` from its start.  On exit, written
    or not, a regular file is cut at the last byte that reached it, so it
    never holds new bytes followed by old ones; other files (devices,
    FIFOs) cannot be truncated and are left as they are."""
    try:
        with open(fd, "w", encoding="ascii", newline="\n", closefd=False) as fh:
            yield fh
    finally:
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if info.st_size > end:
                    os.ftruncate(fd, end)
        finally:
            os.close(fd)


def _library_check(flag: str, check, *args):
    """``check(*args)``, a ValueError it raises reported as a usage error
    that names ``flag``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _check_unit(flag: str, value: float) -> None:
    # on the figure path this is the only range check --alpha gets: the
    # figures call analysis._family_eof, which checks nothing, and NaN
    # fails the chained comparison
    if not 0.0 <= value <= 1.0:
        raise _UsageError(f"{flag} must lie in [0, 1], got {value!r}")


def _grid(n: int) -> np.ndarray:
    """The uniform grid of --grid-points ``n`` points, ``n`` checked first."""
    if n < 2:
        raise _UsageError("--grid-points must be at least 2")
    if n > GRID_POINTS_MAX:
        raise _UsageError(f"--grid-points must be at most {GRID_POINTS_MAX}")
    return np.linspace(0.0, 1.0, n)


def _boundary(s1: np.ndarray, branch: str) -> np.ndarray:
    """s2 on ``branch`` of the region boundary, clipped to [0, 1].  The
    lower branch drops below s2 = 0 for s1 > 3/4 (to -0.0667), and the
    clip moves those points to the edge s2 = 0: 49 of the 201 default s1
    points.  At 1 the clip only absorbs rounding."""
    return np.minimum(np.maximum(cloners.acm_boundary_s2(s1, branch), 0.0), 1.0)


def _repeat_tile(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of the outer and inner input of the rows of an n x n
    sweep: row i takes i // n and i % n, the np.repeat and np.tile order."""
    return np.divmod(np.arange(n * n), n)


def _clone_matrix(args) -> tuple[np.ndarray, np.ndarray]:
    """The input state of clone/entangle and its clone matrix.  An unset
    scm --clones is stored as the 2 it stands for, so the config names it."""
    if args.clones is not None and args.machine != "scm":
        raise _UsageError("--clones only applies to --machine scm")
    if args.s1 is not None and args.machine != "acm":
        raise _UsageError("--s1 only applies to --machine acm")
    if args.machine == "acm" and args.s1 is None:
        raise _UsageError("--machine acm needs --s1")
    if args.machine == "scm" and args.clones is None:
        args.clones = 2
    state = _library_check("--alpha", states.psi_minus_family, args.alpha)
    # of the machines' parameters only scm's --clones and acm's --s1 can fail
    flag = "--s1" if args.machine == "acm" else "--clones"
    return state, _library_check(flag, cloners.clone, state, args.machine, args.clones, args.s1)


def _cmd_clone(args) -> tuple:
    _, rho = _clone_matrix(args)
    index = np.arange(4)
    columns = [np.repeat(index, 4), np.tile(index, 4), rho.real.ravel(), rho.imag.ravel()]
    return ["row", "col", "re", "im"], columns


def _cmd_entangle(args) -> tuple:
    state, rho = _clone_matrix(args)
    report = entanglement.concurrence(rho)
    fid = entanglement.fidelity(state, rho)
    header = [
        "alpha",
        "concurrence",
        "eof",
        "lambda1",
        "lambda2",
        "lambda3",
        "lambda4",
        "fidelity",
    ]
    row = (args.alpha, report.concurrence, report.eof) + report.lambdas + (fid,)
    return header, [np.array([x]) for x in row]


def _round_up(x: float) -> float:
    """``x`` rounded up to 2 significant digits, decided on its exact
    decimal value, so the 2 digits printed are never below ``x``."""
    d = decimal.Decimal(x)
    return float(d.quantize(decimal.Decimal(1).scaleb(d.adjusted() - 1), decimal.ROUND_CEILING))


def _cmd_mean(args) -> tuple:
    _library_check("--quad-tol", analysis._check_tol, args.quad_tol)
    if args.machine == "acm":
        if args.s1 is None or args.s2 is None:
            raise _UsageError("--machine acm needs both --s1 and --s2")
        params = _library_check("--s1/--s2", cloners.ShrinkParams, args.s1, args.s2)
        try:
            result = analysis.mean_entanglement_acm(params, args.quad_tol)
        except cloners.ConstraintViolatedError as exc:
            raise _UsageError(f"--s1/--s2: {exc}") from exc
    else:
        if args.s1 is not None or args.s2 is not None:
            raise _UsageError("--s1/--s2 only apply to --machine acm")
        result = analysis.mean_entanglement(args.machine, args.quad_tol)
    # |Q_2n - Q_n| is roundoff-sized here, and its digits past the second
    # follow the BLAS kernel; rounded up, the estimate stays a bound
    row = (result.value, _round_up(result.abs_error_estimate), result.evaluations)
    return ["value", "abs_error_estimate", "evaluations"], [np.array([x]) for x in row]


def _cmd_fig1(args) -> tuple:
    grid = _grid(args.grid_points)
    shrinks = [[cloners.family_shrink("wzcm")], [cloners.family_shrink("scm")]]
    wz, sc = analysis._family_eof(grid, np.array(shrinks))
    return ["alpha", "eof_wzcm", "eof_scm"], [grid, wz, sc]


def _cmd_fig2(args) -> tuple:
    grid = _grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    outer, inner = _repeat_tile(args.grid_points)
    s1, s2 = grid[outer], grid[inner]
    eof = analysis._family_eof(args.alpha, grid)
    # pairs outside the region take index -1 and get no average
    kept = np.flatnonzero(cloners.acm_region_value(s1, s2) <= cloners.CONSTRAINT_SLACK)
    index = np.full(outer.size, -1)
    index[kept] = np.arange(kept.size)
    values = 0.5 * (eof[outer[kept]] + eof[inner[kept]])
    columns = [(grid, outer), (grid, inner), (values, index), cloners.acm_degenerate(s1, s2)]
    return ["s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig3(args) -> tuple:
    grid = _grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    s2 = _boundary(grid, args.branch)
    eof = analysis._family_eof(args.alpha, np.array((grid, s2)))
    columns = [grid, s2, 0.5 * (eof[0] + eof[1]), cloners.acm_degenerate(grid, s2)]
    return ["s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig4(args) -> tuple:
    grid = _grid(args.grid_points)
    s2 = _boundary(grid, args.branch)
    eof = analysis._family_eof(grid[:, None], np.array((grid, s2))[:, None, :])
    values = (0.5 * (eof[0] + eof[1])).ravel()
    outer, inner = _repeat_tile(args.grid_points)
    degenerate = cloners.acm_degenerate(grid, s2)[inner]
    columns = [(grid, outer), (grid, inner), (s2, inner), values, degenerate]
    return ["alpha", "s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig5(args) -> tuple:
    s1 = _grid(args.grid_points)
    _library_check("--quad-tol", analysis._check_tol, args.quad_tol)
    s2 = _boundary(s1, args.branch)
    analysis._require_region(s1, s2)
    means = analysis.family_mean(np.array((s1, s2)), args.quad_tol).value
    mean_wz = analysis.mean_entanglement("wzcm", args.quad_tol).value
    mean_sc = analysis.mean_entanglement("scm", args.quad_tol).value
    value, degenerate = 0.5 * (means[0] + means[1]), cloners.acm_degenerate(s1, s2)
    columns = [s1, s2, value, np.full(s1.size, mean_wz), np.full(s1.size, mean_sc), degenerate]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    return header, columns


_COMMANDS = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "clone": _cmd_clone,
    "entangle": _cmd_entangle,
    "mean": _cmd_mean,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Cloning-machine entanglement data series as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # Python 3.13's pattern: before it, argparse reads a value such as
        # -1e-09 as a flag and only -N and -N.N as negative numbers
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")
        return p

    p = add("fig1", "per-alpha clone entanglement, both symmetric machines")
    p.add_argument("--grid-points", type=int, default=analysis.GRID_POINTS_DEFAULT)

    p = add("fig2", "two-copy average entanglement over the (s1, s2) square")
    p.add_argument("--alpha", type=float, default=_SINGLET_ALPHA)
    p.add_argument("--grid-points", type=int, default=analysis.GRID_POINTS_DEFAULT)

    p = add("fig3", "two-copy average entanglement along a boundary branch")
    p.add_argument("--alpha", type=float, default=_SINGLET_ALPHA)
    p.add_argument("--branch", choices=cloners.BRANCHES, default="upper")
    p.add_argument("--grid-points", type=int, default=analysis.GRID_POINTS_DEFAULT)

    p = add("fig4", "boundary-branch average entanglement over (alpha, s1)")
    p.add_argument("--branch", choices=cloners.BRANCHES, default="upper")
    p.add_argument("--grid-points", type=int, default=analysis.GRID_POINTS_DEFAULT)

    p = add("fig5", "alpha-averaged entanglement along a boundary branch")
    p.add_argument("--branch", choices=cloners.BRANCHES, default="upper")
    p.add_argument("--grid-points", type=int, default=analysis.GRID_POINTS_DEFAULT)
    p.add_argument("--quad-tol", type=float, default=analysis.QUAD_DEFAULT_TOL)

    for name, help_text in (
        ("clone", "density matrix of a single clone"),
        ("entangle", "entanglement report for a single clone"),
    ):
        p = add(name, help_text)
        p.add_argument("--machine", choices=cloners.MACHINES, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--clones", type=int, default=None)
        p.add_argument("--s1", type=float, default=None)

    p = add("mean", "clone entanglement averaged over the input family")
    p.add_argument("--machine", choices=cloners.MACHINES, required=True)
    p.add_argument("--quad-tol", type=float, default=analysis.QUAD_DEFAULT_TOL)
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: each parse returns a fresh namespace."""
    return build_parser()


def _subparser(command: str) -> argparse.ArgumentParser | None:
    """The parser of ``command``, None when no command has that name."""
    # argparse has no public accessor for the subparsers action; it is the
    # one action of the positional group
    (commands,) = _parser()._subparsers._group_actions
    return commands.choices.get(command)


def _config(args: argparse.Namespace) -> list[tuple[str, object]]:
    """The ``# key: value`` pairs of a parsed command: each flag but
    --output whose value is not None, in the order its parser declares
    them."""
    values = vars(args)
    return [
        (action.dest, values[action.dest])
        for action in _subparser(args.command)._actions
        if action.dest != "output" and values.get(action.dest) is not None
    ]


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsed at the subcommand.

    When argv[0] names a command, that command's subparser in the cached
    tree reads the rest with ``command`` preset, so the top-level parser
    does not scan every sub-flag first; what it leaves over is reported by
    the top-level parser with the message ``parse_args`` gives.  Anything
    else (no command, an unknown one, -h) goes to the top-level parser.
    """
    sub = _subparser(argv[0]) if argv else None
    if sub is None:
        return _parser().parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        table = _COMMANDS[args.command](args)
        output = _open_output(args.output)
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (
        analysis.QuadratureConvergenceError,
        qmath.EigenConvergenceError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"{PROG}: numeric failure: {exc}", file=sys.stderr)
        return 1
    chunks = _render(args.command, _config(args), *table)
    try:
        with output as fh:
            fh.writelines(chunks)
            fh.flush()
    except OSError as exc:
        target = "stdout" if args.output is None else repr(args.output)
        print(f"{PROG}: write failure: {exc.strerror or exc}: {target}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """The console script: exit with main's status.  After a failed write
    to stdout, its file descriptor is pointed at os.devnull, so the flush
    at interpreter exit cannot fail on the same bytes again."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(status)
