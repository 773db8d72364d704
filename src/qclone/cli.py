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
BLOCK_ROWS at a time, never held as one string.  The comment and header
lines go out with the first block.

Every command and flag is declared once, in the table _COMMANDS: a
command's help line, the function that builds its table and its flags,
each with its type or choices and its default or a required mark.  A
plain command line, the command then ``--flag VALUE`` pairs, is read from
a spec precomputed from that table into the namespace argparse builds.
The argparse parser, built from the same table, reads only the other
lines and those it would reject, so messages, help and exit codes are its own.

The CSV goes to sys.stdout, a text stream that callers may replace, or
with --output PATH to the file as ASCII bytes: one os.write per block on
its descriptor (more only after a short write), with no stream or buffer
in between.  --output rewrites the file in place: an existing file keeps
its inode and its mode, so hard links and symlinks to it see the new CSV;
a new one gets 0o666 less the umask.  The CSV is written over the old
bytes from the start and the file is then cut to the new length, so a
failed write leaves a prefix of the new CSV, never new bytes followed by
old ones.  The rewrite is not atomic and nothing is fsynced; to replace a
file atomically, write to a new path and rename it over the old one.

Exit codes: 0 on success, 1 when a quadrature, an eigensolve or the
concurrence SVD fails to converge (the diagnostic names the failing
computation) and when writing the CSV fails (it names the output, and may
leave part of the CSV written), 2 on flag validation errors and on an
--output path that cannot be opened.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import math
import os
import re
import stat
import sys
from typing import Iterator

import numpy as np

from . import analysis, cloners, entanglement, qmath, states

PROG = "qclone"

_SINGLET_ALPHA = 1.0 / math.sqrt(2.0)
#: largest accepted --grid-points: fig2 and fig4 write n^2 rows, and at
#: 1001 (a million rows, 31 MB of CSV for fig2) an in-process run to a
#: file took 0.5-0.7 s for fig2 and 0.7-0.9 s for fig4 (3 runs each, both
#: branches, shared 2-vCPU Xeon host).
GRID_POINTS_MAX = 1001
#: rows formatted and written at a time.
BLOCK_ROWS = 4096
#: row-template field per dtype kind of a numpy column.
_SPECS = {"f": "%.9g", "i": "%d"}
#: CSV words of False and True; object dtype, so indexing yields str.
_BOOL_WORDS = np.array(["false", "true"], dtype=object)


def _texts(values: np.ndarray) -> list[str]:
    """Each value formatted by the float spec, in one % over a joined template."""
    return ((_SPECS["f"] + "\n") * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _render(command: str, config, header: list[str], columns) -> Iterator[str]:
    """The CSV of a table of columns in blocks of up to BLOCK_ROWS rows,
    the comment and header lines in front of the first block (alone for
    a table of no rows).  Each block is formatted by one % over a row
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
    head = "\n".join(lines) + "\n"
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
        yield head + row * m % tuple(cells)
        head = ""
    if not n:
        yield head


class _UsageError(Exception):
    pass


def _open_output(path: str | None):
    """sys.stdout, or a _FileSink of the file at ``path``, opened for
    writing without O_TRUNC; an unopenable path is a usage error."""
    if path is None:
        return sys.stdout
    try:
        # no O_TRUNC: truncating a file that holds data to length 0 makes
        # ext4 start writeback at close; the stale tail is cut on close
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise _UsageError(f"--output: {exc.strerror}: {path!r}") from exc
    return _FileSink(fd)


class _FileSink:
    """Text written as ASCII bytes over the descriptor ``fd`` from its
    start: one os.write per write, then more only for what a short write
    left.  ``end`` counts the bytes os.write reports written."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.end = 0

    def write(self, text: str) -> None:
        data = text.encode("ascii")
        while data:
            n = os.write(self.fd, data)
            self.end += n
            data = data[n:]

    def flush(self) -> None:
        """Nothing is buffered, and nothing is fsynced."""

    def close(self) -> None:
        """Cut a regular file at ``end``, written or not, so it never holds
        new bytes followed by old ones; other files (devices, FIFOs) cannot
        be truncated and are left as they are.  Then close ``fd``."""
        try:
            info = os.fstat(self.fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > self.end:
                os.ftruncate(self.fd, self.end)
        finally:
            os.close(self.fd)


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
        result = _library_check("--s1/--s2", analysis.mean_entanglement_acm, params, args.quad_tol)
    else:
        if args.s1 is not None or args.s2 is not None:
            raise _UsageError("--s1/--s2 only apply to --machine acm")
        result = analysis.mean_entanglement(args.machine, args.quad_tol)
    # |Q_2n - Q_n| is roundoff-sized here, and its digits past the second
    # follow the SIMD kernels; rounded up, the estimate stays a bound
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
    # row i of the n x n sweep takes i // n and i % n, the repeat and tile order
    outer, inner = np.divmod(np.arange(grid.size**2), grid.size)
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
    # row i of the n x n sweep takes i // n and i % n, the repeat and tile order
    outer, inner = np.divmod(np.arange(grid.size**2), grid.size)
    degenerate = cloners.acm_degenerate(grid, s2)[inner]
    columns = [(grid, outer), (grid, inner), (s2, inner), values, degenerate]
    return ["alpha", "s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig5(args) -> tuple:
    s1 = _grid(args.grid_points)
    _library_check("--quad-tol", analysis._check_tol, args.quad_tol)
    s2 = _boundary(s1, args.branch)
    analysis._require_region(s1, s2)
    # one quadrature pass: both copies of every pair, then the wzcm and scm shrinks
    references = (cloners.family_shrink("wzcm"), cloners.family_shrink("scm"))
    means = analysis.family_mean(np.concatenate((s1, s2, references)), args.quad_tol).value
    n = s1.size
    value, degenerate = 0.5 * (means[:n] + means[n : 2 * n]), cloners.acm_degenerate(s1, s2)
    columns = [s1, s2, value, np.full(n, means[-2]), np.full(n, means[-1]), degenerate]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    return header, columns


#: the default of a flag that a command requires.
_REQUIRED = object()
# a flag is (option, type or choices, default); each shared one is written once
_GRID_POINTS = ("--grid-points", int, analysis.GRID_POINTS_DEFAULT)
_BRANCH = ("--branch", cloners.BRANCHES, "upper")
_QUAD_TOL = ("--quad-tol", float, analysis.QUAD_DEFAULT_TOL)
_FIGURE_ALPHA = ("--alpha", float, _SINGLET_ALPHA)
_MACHINE = ("--machine", cloners.MACHINES, _REQUIRED)
_S1 = ("--s1", float, None)
_CLONE_FLAGS = (_MACHINE, ("--alpha", float, _REQUIRED), ("--clones", int, None), _S1)
#: each command: its help line, the function that builds its table, and
#: its flags after --output, in -h order.
_COMMANDS = {
    "fig1": ("per-alpha clone entanglement, both symmetric machines",
             _cmd_fig1, (_GRID_POINTS,)),
    "fig2": ("two-copy average entanglement over the (s1, s2) square",
             _cmd_fig2, (_FIGURE_ALPHA, _GRID_POINTS)),
    "fig3": ("two-copy average entanglement along a boundary branch",
             _cmd_fig3, (_FIGURE_ALPHA, _BRANCH, _GRID_POINTS)),
    "fig4": ("boundary-branch average entanglement over (alpha, s1)",
             _cmd_fig4, (_BRANCH, _GRID_POINTS)),
    "fig5": ("alpha-averaged entanglement along a boundary branch",
             _cmd_fig5, (_BRANCH, _GRID_POINTS, _QUAD_TOL)),
    "clone": ("density matrix of a single clone", _cmd_clone, _CLONE_FLAGS),
    "entangle": ("entanglement report for a single clone", _cmd_entangle, _CLONE_FLAGS),
    "mean": ("clone entanglement averaged over the input family",
             _cmd_mean, (_MACHINE, _QUAD_TOL, _S1, ("--s2", float, None))),
}
#: Python 3.13's pattern: before it, argparse reads a value such as -1e-09
#: as a flag and only -N and -N.N as negative numbers.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, built on first use and kept: each
    parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Cloning-machine entanglement data series as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, table, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.set_defaults(table=table)
        p.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")
        for option, kind, default in flags:
            check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            given = {"required": True} if default is _REQUIRED else {"default": default}
            p.add_argument(option, **check, **given)
    return parser


def _plain_spec(table, flags) -> tuple:
    """What _parse_plain reads of a command: the namespace a parse starts
    from, with argparse's names in argparse's order; each option's dest,
    type and choices; the required options."""
    start, options = {"command": None}, {}
    for option, kind, default in (("--output", str, None), *flags):
        dest = option[2:].replace("-", "_")
        start[dest] = None if default is _REQUIRED else default
        options[option] = (dest, str, kind) if isinstance(kind, tuple) else (dest, kind, None)
    start["table"] = table
    return start, options, frozenset(option for option, _, d in flags if d is _REQUIRED)


_PLAIN_SPECS = {name: _plain_spec(table, flags) for name, (_, table, flags) in _COMMANDS.items()}


def _config(args: argparse.Namespace) -> list[tuple[str, object]]:
    """The ``# key: value`` pairs of a parsed command: each flag but
    --output whose value is not None, in the order the command declares
    them, which is the namespace's."""
    items = vars(args).items()
    return [(k, v) for k, v in items if v is not None and k not in ("command", "output", "table")]


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a plain argv (see _parse), None for any other."""
    spec = _PLAIN_SPECS.get(argv[0]) if len(argv) % 2 else None
    if spec is None:
        return None
    start, options, required = spec
    values = dict(start, command=argv[0])
    for option, text in zip(argv[1::2], argv[2::2]):
        if option not in options or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
            return None
        dest, kind, choices = options[option]
        try:
            value = kind(text)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required.issubset(argv[1::2]):
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, without argparse for a plain argv:
    a command, then ``--flag VALUE`` pairs, each flag one of the command's
    and each VALUE not starting with ``-`` or looking like a negative
    number, so argparse reads it as an argument.  Each VALUE goes through
    its flag's type and choices; a repeated flag keeps its last value.  Any
    other argv, or a plain one with a value argparse rejects or a required
    flag missing, goes to the full parser, so its messages and exit codes
    are argparse's."""
    args = _parse_plain(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        table = args.table(args)
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
        try:
            for chunk in chunks:
                output.write(chunk)
            output.flush()
        finally:
            if output is not sys.stdout:
                output.close()
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
