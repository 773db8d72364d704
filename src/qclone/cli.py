"""Command-line interface emitting deterministic CSV data series.

Output format, shared by every command: zero or more `# key: value` comment
lines recording the exact configuration, one header row naming the columns,
then data rows.  Fields are comma-separated, floats carry 9 significant
digits, line endings are Unix.  Identical flags produce identical bytes.
Each command computes its table as numpy columns before a byte is written,
so numeric and usage failures write nothing; the rows are then formatted
and written BLOCK_ROWS at a time, never held as one string.

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
import functools
import math
import os
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


def _render(command: str, config, header: list[str], columns, missing=None) -> Iterator[str]:
    """The CSV of a table of columns: comment and header lines, then
    blocks of up to BLOCK_ROWS rows, each formatted by one % over a row
    template: %.9g for float columns, %d for int columns, true/false for
    bool columns.  A column is a numpy array, or a pair (grid, index)
    standing for grid[index], as the repeat and tile layout of a 2-D sweep
    gives: each grid value is formatted once and each row takes its text
    by index.  ``missing`` is None or one mask (or None) per column;
    masked points print as outside_region and are never formatted, so a
    masked cell may hold any float, NaN and Inf included.
    """
    lines = [f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}: {value!r}" if isinstance(value, float) else f"# {key}: {value}")
    lines.append(",".join(header))
    yield "\n".join(lines) + "\n"
    masks = missing or (None,) * len(columns)
    # bool and (grid, index) columns become (table of texts, index)
    coded = [
        (np.array(_texts(c[0]), dtype=object), c[1])
        if isinstance(c, tuple)
        else (_BOOL_WORDS, c.astype(int)) if c.dtype.kind == "b" else None
        for c in columns
    ]
    row = ",".join(
        "%s" if mask is not None or code is not None else _SPECS[c.dtype.kind]
        for c, mask, code in zip(columns, masks, coded)
    ) + "\n"
    k = len(columns)
    n = len(coded[0][1]) if coded[0] is not None else len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        m = min(BLOCK_ROWS, n - lo)
        cells = [None] * (m * k)
        for j, (col, mask, code) in enumerate(zip(columns, masks, coded)):
            if code is not None:
                table, index = code
                cells[j::k] = table[index[lo : lo + m]].tolist()
            elif mask is None:
                cells[j::k] = col[lo : lo + m].tolist()
            else:
                hidden = mask[lo : lo + m]
                texts = iter(_texts(col[lo : lo + m][~hidden]))
                cells[j::k] = ["outside_region" if h else next(texts) for h in hidden.tolist()]
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


def _machine_inputs(args) -> tuple:
    """Validate the machine/parameter flag combination for clone/entangle."""
    if args.clones is not None and args.machine != "scm":
        raise _UsageError("--clones only applies to --machine scm")
    if args.s1 is not None and args.machine != "acm":
        raise _UsageError("--s1 only applies to --machine acm")
    if args.machine == "wzcm":
        return ("wzcm", None)
    if args.machine == "scm":
        count = 2 if args.clones is None else args.clones
        try:
            cloners.scm_shrink_factor(count)
        except ValueError as exc:
            raise _UsageError(f"--clones: {exc}") from exc
        return ("scm", count)
    if args.s1 is None:
        raise _UsageError("--machine acm needs --s1")
    _check_unit("--s1", args.s1)
    return ("acm", args.s1)


def _check_unit(flag: str, value: float) -> None:
    # on the figure path this is the only range check --alpha gets: the
    # figures call analysis._family_eof, which checks nothing, and NaN
    # fails the chained comparison
    if not 0.0 <= value <= 1.0:
        raise _UsageError(f"{flag} must lie in [0, 1], got {value:g}")


def _check_grid(n: int) -> None:
    if n < 2:
        raise _UsageError("--grid-points must be at least 2")
    if n > GRID_POINTS_MAX:
        raise _UsageError(f"--grid-points must be at most {GRID_POINTS_MAX}")


def _check_tol(tol: float) -> None:
    """The library's tolerance check, its error reported as a usage error."""
    try:
        analysis._check_tol(tol)
    except ValueError as exc:
        raise _UsageError(f"--quad-tol: {exc}") from exc


def _boundary(s1: np.ndarray, branch: str) -> np.ndarray:
    """s2 on ``branch`` of the region boundary, clipped to [0, 1] against
    rounding."""
    return np.minimum(np.maximum(cloners.acm_boundary_s2(s1, branch), 0.0), 1.0)


def _repeat_tile(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of the outer and inner input of the rows of an n x n
    sweep: row i takes i // n and i % n, the np.repeat and np.tile order."""
    return np.divmod(np.arange(n * n), n)


def _clone_matrix(args) -> tuple[np.ndarray, list[tuple[str, object]]]:
    """The clone matrix for clone/entangle, with the config lines naming it."""
    machine, param = _machine_inputs(args)
    _check_unit("--alpha", args.alpha)
    state = states.psi_minus_family(args.alpha)
    config = [("machine", machine), ("alpha", float(args.alpha))]
    if machine == "wzcm":
        return cloners.wzcm_clone(states.to_bell_basis(state)), config
    if machine == "scm":
        return cloners.scm_clone(state, param), config + [("clones", param)]
    return cloners.acm_clone(state, param), config + [("s1", float(param))]


def _cmd_clone(args) -> Iterator[str]:
    rho, config = _clone_matrix(args)
    index = np.arange(4)
    columns = [np.repeat(index, 4), np.tile(index, 4), rho.real.ravel(), rho.imag.ravel()]
    return _render("clone", config, ["row", "col", "re", "im"], columns)


def _cmd_entangle(args) -> Iterator[str]:
    rho, config = _clone_matrix(args)
    state = states.psi_minus_family(args.alpha)
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
    return _render("entangle", config, header, [np.array([x]) for x in row])


def _cmd_mean(args) -> Iterator[str]:
    _check_tol(args.quad_tol)
    config = [("machine", args.machine), ("quad_tol", float(args.quad_tol))]
    if args.machine == "acm":
        if args.s1 is None or args.s2 is None:
            raise _UsageError("--machine acm needs both --s1 and --s2")
        _check_unit("--s1", args.s1)
        _check_unit("--s2", args.s2)
        config.extend([("s1", float(args.s1)), ("s2", float(args.s2))])
        params = cloners.ShrinkParams(args.s1, args.s2)
        try:
            result = analysis.mean_entanglement_acm(params, args.quad_tol)
        except cloners.ConstraintViolatedError as exc:
            raise _UsageError(f"--s1/--s2: {exc}") from exc
    else:
        if args.s1 is not None or args.s2 is not None:
            raise _UsageError("--s1/--s2 only apply to --machine acm")
        result = analysis.mean_entanglement(args.machine, args.quad_tol)
    header = ["value", "abs_error_estimate", "evaluations"]
    row = (result.value, result.abs_error_estimate, result.evaluations)
    return _render("mean", config, header, [np.array([x]) for x in row])


def _cmd_fig1(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    grid = analysis.uniform_grid(args.grid_points)
    wz, sc = analysis._family_eof(grid, np.array([[1.0], [cloners.scm_shrink_factor(2)]]))
    config = [("grid_points", args.grid_points)]
    return _render("fig1", config, ["alpha", "eof_wzcm", "eof_scm"], [grid, wz, sc])


def _cmd_fig2(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    grid = analysis.uniform_grid(args.grid_points)
    outer, inner = _repeat_tile(args.grid_points)
    s1, s2 = grid[outer], grid[inner]
    eof = analysis._family_eof(args.alpha, grid)
    values = 0.5 * (eof[outer] + eof[inner])
    outside = cloners.acm_region_value(s1, s2) > cloners.CONSTRAINT_SLACK
    columns = [(grid, outer), (grid, inner), values, cloners.acm_degenerate(s1, s2)]
    header = ["s1", "s2", "avg_eof", "degenerate"]
    config = [("alpha", float(args.alpha)), ("grid_points", args.grid_points)]
    return _render("fig2", config, header, columns, [None, None, outside, None])


def _cmd_fig3(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    grid = analysis.uniform_grid(args.grid_points)
    s2 = _boundary(grid, args.branch)
    eof = analysis._family_eof(args.alpha, np.array((grid, s2)))
    columns = [grid, s2, 0.5 * (eof[0] + eof[1]), cloners.acm_degenerate(grid, s2)]
    config = [
        ("alpha", float(args.alpha)),
        ("branch", args.branch),
        ("grid_points", args.grid_points),
    ]
    return _render("fig3", config, ["s1", "s2", "avg_eof", "degenerate"], columns)


def _cmd_fig4(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    grid = analysis.uniform_grid(args.grid_points)
    s2 = _boundary(grid, args.branch)
    eof = analysis._family_eof(grid[:, None], np.array((grid, s2))[:, None, :])
    values = (0.5 * (eof[0] + eof[1])).ravel()
    outer, inner = _repeat_tile(args.grid_points)
    degenerate = cloners.acm_degenerate(grid, s2)[inner]
    columns = [(grid, outer), (grid, inner), (s2, inner), values, degenerate]
    header = ["alpha", "s1", "s2", "avg_eof", "degenerate"]
    config = [("branch", args.branch), ("grid_points", args.grid_points)]
    return _render("fig4", config, header, columns)


def _cmd_fig5(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_tol(args.quad_tol)
    s1 = analysis.uniform_grid(args.grid_points)
    s2 = _boundary(s1, args.branch)
    analysis._require_region(s1, s2)
    means = analysis.family_mean(np.array((s1, s2)), args.quad_tol).value
    mean_wz = analysis.mean_entanglement("wzcm", args.quad_tol).value
    mean_sc = analysis.mean_entanglement("scm", args.quad_tol).value
    value, degenerate = 0.5 * (means[0] + means[1]), cloners.acm_degenerate(s1, s2)
    columns = [s1, s2, value, np.full(s1.size, mean_wz), np.full(s1.size, mean_sc), degenerate]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    config = [
        ("branch", args.branch),
        ("grid_points", args.grid_points),
        ("quad_tol", float(args.quad_tol)),
    ]
    return _render("fig5", config, header, columns)


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
        p.add_argument("--machine", choices=analysis.MACHINES, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--clones", type=int, default=None)
        p.add_argument("--s1", type=float, default=None)

    p = add("mean", "clone entanglement averaged over the input family")
    p.add_argument("--machine", choices=analysis.MACHINES, required=True)
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)
    p.add_argument("--quad-tol", type=float, default=analysis.QUAD_DEFAULT_TOL)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: each parse returns a fresh namespace."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, parsed at the subcommand.

    When argv[0] names a command, that command's subparser in the cached
    tree reads the rest with ``command`` preset, so the top-level parser
    does not scan every sub-flag first; what it leaves over is reported by
    the top-level parser with the message ``parse_args`` gives.  Anything
    else (no command, an unknown one, -h) goes to the top-level parser.
    """
    parser = _parser()
    # argparse has no public accessor for the subparsers action; it is the
    # one action of the positional group
    (commands,) = parser._subparsers._group_actions
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        chunks = _COMMANDS[args.command](args)
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
