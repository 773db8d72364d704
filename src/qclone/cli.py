"""Command-line interface emitting deterministic CSV data series.

Output format, shared by every command: `# key: value` comment lines
recording the exact configuration, one header row naming the columns,
then data rows.  The comment lines are `# command: NAME`, then one line
per flag other than --output whose value is not None, keyed by its
flag name (`--grid-points` is `grid_points`), in the order the
command declares its flags, floats by repr; an unset scm --clones is
written as the 2 it stands for.  Fields are comma-separated, floats carry
9 significant digits (mean's error estimate 2, rounded up), line endings
are Unix.  Identical flags produce identical bytes.  Every command returns
its table, (header, columns), before a byte is written, so numeric and
usage failures write nothing; main then formats and writes the rows
BLOCK_ROWS at a time, never held as one string.  The comment and header
lines go out with the first block.  A column may be coded as values[index],
and each values array is formatted once per command however many columns
and rows share it: the grid of fig2 and fig4, fig4's boundary s2, fig5's
two constant reference means.

Each input that several commands share is built in one place: _grid the
grid of --grid-points, _rows the n x n row layout of fig2, fig4 and
clone's 4x4 matrix, _sweep the boundary s2 and degenerate flags of fig3,
fig4 and fig5, and _REFERENCE_SHRINKS the wzcm and two-copy scm shrinks
of fig1 and fig5.

Every command and flag is declared once, in the table _COMMANDS, and
_parse reads every command line, and -h lists every flag, from it.

The CSV is formatted as ASCII bytes, one bytes % per block.  sys.stdout,
a text stream that callers may replace, receives their decoded text;
with --output PATH the bytes go to the file as they are: one os.write
per block on its descriptor (more only after a short write), with no
encode, stream or buffer in between.  --output rewrites the file in
place: an existing file keeps its inode and its mode, so hard links and
symlinks to it see the new CSV; a new one gets 0o666 less the umask.
The CSV is written over the old bytes from the start and the file is
then cut to the new length, so a failed write leaves a prefix of the new
CSV, never new bytes followed by old ones.  The rewrite is not atomic
and nothing is fsynced; to replace a file atomically, write to a new path
and rename it over the old one.

Exit codes: 0 on success, 1 when a quadrature, an eigensolve or the
concurrence SVD fails to converge (the diagnostic names it) and when
writing the CSV fails (it names the output, and may leave part of the CSV
written), 2 on a usage error: a command line _parse rejects, a flag out
of range, an unopenable --output path.  Each prints one line on stderr; with
descriptor 2 closed the line is lost, and the exit code stays the same.
"""

from __future__ import annotations

import decimal
import errno
import math
import os
import re
import stat
import sys
from types import SimpleNamespace
from typing import Iterator, NoReturn

import numpy as np

from . import analysis, cloners, entanglement, qmath, states

PROG = "qclone"

_SINGLET_ALPHA = 1.0 / math.sqrt(2.0)
#: default number of grid points for figure sweeps.
GRID_POINTS_DEFAULT = 201
#: largest accepted --grid-points: fig2 and fig4 write n^2 rows, and at
#: 1001 (a million rows, 31 MB of CSV for fig2) an in-process run to a
#: file took 0.32-0.38 s for fig2 (alpha 1/sqrt(2) and 0.9) and 0.44-0.50 s
#: for fig4 (both branches; best of 5, twice each, shared 2-vCPU Xeon host).
GRID_POINTS_MAX = 1001
#: rows formatted and written at a time.
BLOCK_ROWS = 4096
#: row-template field per dtype kind of a numpy column.
_SPECS = {"f": b"%.9g", "i": b"%d"}
#: CSV words of False and True; object dtype, so indexing yields bytes.
_BOOL_WORDS = np.array([b"false", b"true"], dtype=object)


def _texts(values: np.ndarray) -> list[bytes]:
    """Each value formatted by the float spec, in one % over a joined template."""
    return ((_SPECS["f"] + b"\n") * len(values) % tuple(values.tolist())).split(b"\n")[:-1]


def _render(command: str, config, header: list[str], columns) -> Iterator[bytes]:
    """The CSV of a table of columns as ASCII bytes, in blocks of up to
    BLOCK_ROWS rows, the comment and header lines, encoded once, in front
    of the first block.  Every table has a row: a grid has at least 2
    points, and clone, entangle and mean are fixed-size.  Each block is
    formatted by one bytes % over a row template: %.9g for float columns,
    %d for int columns, true/false for bool columns.  A column is a numpy
    array, or a pair (values, index) standing for values[index]: each
    distinct values array is formatted once per call, however many columns
    share it, each row takes its text by index, and index -1 prints
    outside_region, so a cell with no value is never formatted.  The _rows
    layout of a 2-D sweep gives (grid, index) pairs, both over one grid;
    fig2's avg_eof is (in-region averages, index) with -1 at each pair
    outside the acm region; fig5's reference columns are (one mean, zeros).
    """
    lines = [f"# command: {command}"]
    for key, value in config:
        lines.append(f"# {key}: {value!r}" if isinstance(value, float) else f"# {key}: {value}")
    lines.append(",".join(header))
    head = ("\n".join(lines) + "\n").encode("ascii")
    # bool and (values, index) columns become (table of texts, index); a
    # values array that several columns share is formatted once
    tables = {}
    for c in columns:
        if isinstance(c, tuple) and id(c[0]) not in tables:
            tables[id(c[0])] = np.array(_texts(c[0]) + [b"outside_region"], dtype=object)
    coded = [
        (tables[id(c[0])], c[1])
        if isinstance(c, tuple)
        else (_BOOL_WORDS, c.astype(int)) if c.dtype.kind == "b" else None
        for c in columns
    ]
    row = b",".join(
        b"%s" if code is not None else _SPECS[c.dtype.kind] for c, code in zip(columns, coded)
    ) + b"\n"
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
        head = b""


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
    """Bytes written over the descriptor ``fd`` from its start, each block
    as it comes: one os.write per write, then more only for what a short
    write left.  ``end`` counts the bytes os.write reports written."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.end = 0

    def write(self, data: bytes) -> None:
        while data:
            n = os.write(self.fd, data)
            self.end += n
            data = data[n:]

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
    """The uniform grid of --grid-points ``n`` points, ``n`` checked first.

    These are the operations of np.linspace(0.0, 1.0, n): i times the step
    1/(n-1), the last point set to 1.0, so the grid is linspace's bit for
    bit (tested for every accepted n).  linspace itself spends longer on
    its argument handling than on the grid at the default size."""
    if n < 2:
        raise _UsageError("--grid-points must be at least 2")
    if n > GRID_POINTS_MAX:
        raise _UsageError(f"--grid-points must be at most {GRID_POINTS_MAX}")
    grid = np.arange(n) * (1.0 / (n - 1))
    grid[-1] = 1.0
    return grid


def _rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two indices of the n x n row layout: row i takes i // n and
    i % n, the ravel order of the (n, n) broadcast of (x[:, None], y)."""
    return np.divmod(np.arange(n * n), n)


def _sweep(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The s1 grid of --grid-points (checked first), s2 on --branch of the
    region boundary, clipped to [0, 1], and each pair's degenerate flag.
    The lower branch drops below s2 = 0 for s1 > 3/4 (to -0.0667), and the
    clip moves those points to the edge s2 = 0: 49 of the 201 default s1
    points.  At 1 the clip only absorbs rounding.  The grid lies in [0, 1]
    and --branch is a parsed choice, so the unchecked kernel serves, and
    nothing after the grid check can fail."""
    s1 = _grid(args.grid_points)
    s2 = np.minimum(np.maximum(cloners._acm_boundary_s2(s1, args.branch), 0.0), 1.0)
    return s1, s2, cloners.acm_degenerate(s1, s2)


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
    return ["row", "col", "re", "im"], [*_rows(4), rho.real.ravel(), rho.imag.ravel()]


def _cmd_entangle(args) -> tuple:
    state, rho = _clone_matrix(args)
    report = entanglement.concurrence(rho)
    fid = entanglement.fidelity(state, rho)
    header = ["alpha", "concurrence", "eof", "lambda1", "lambda2", "lambda3", "lambda4", "fidelity"]
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


#: the shrinks of fig1's and fig5's reference machines: wzcm, two-copy scm.
_REFERENCE_SHRINKS = np.array((cloners.family_shrink("wzcm"), cloners.family_shrink("scm")))


def _cmd_fig1(args) -> tuple:
    grid = _grid(args.grid_points)
    wz, sc = analysis._family_eof(grid, _REFERENCE_SHRINKS[:, None])
    return ["alpha", "eof_wzcm", "eof_scm"], [grid, wz, sc]


def _cmd_fig2(args) -> tuple:
    grid = _grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    outer, inner = _rows(grid.size)
    s1, s2 = grid[:, None], grid
    eof = analysis._family_eof(args.alpha, grid)
    # pairs outside the region take index -1 and get no average
    kept = np.flatnonzero(cloners.acm_region_value(s1, s2) <= cloners.CONSTRAINT_SLACK)
    index = np.full(outer.size, -1)
    index[kept] = np.arange(kept.size)
    values = 0.5 * (eof[outer[kept]] + eof[inner[kept]])
    degenerate = cloners.acm_degenerate(s1, s2).ravel()
    columns = [(grid, outer), (grid, inner), (values, index), degenerate]
    return ["s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig3(args) -> tuple:
    s1, s2, degenerate = _sweep(args)
    _check_unit("--alpha", args.alpha)
    eof = analysis._family_eof(args.alpha, np.array((s1, s2)))
    return ["s1", "s2", "avg_eof", "degenerate"], [s1, s2, 0.5 * (eof[0] + eof[1]), degenerate]


def _cmd_fig4(args) -> tuple:
    grid, s2, degenerate = _sweep(args)
    eof = analysis._family_eof(grid[:, None], np.array((grid, s2))[:, None, :])
    values = (0.5 * (eof[0] + eof[1])).ravel()
    outer, inner = _rows(grid.size)
    columns = [(grid, outer), (grid, inner), (s2, inner), values, degenerate[inner]]
    return ["alpha", "s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig5(args) -> tuple:
    s1, s2, degenerate = _sweep(args)
    _library_check("--quad-tol", analysis._check_tol, args.quad_tol)
    analysis._require_region(s1, s2)
    # one quadrature pass: both copies of every pair, then the reference shrinks
    means = analysis.family_mean(np.concatenate((s1, s2, _REFERENCE_SHRINKS)), args.quad_tol).value
    n = s1.size
    value = 0.5 * (means[:n] + means[n : 2 * n])
    # the reference means are constant columns: one text each, every row index 0
    first = np.zeros(n, dtype=int)
    columns = [s1, s2, value, (means[-2:-1], first), (means[-1:], first), degenerate]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    return header, columns


#: the default of a flag that a command requires.
_REQUIRED = object()
# a flag is (option, type or choices, default); each shared one is written once
_GRID_POINTS = ("--grid-points", int, GRID_POINTS_DEFAULT)
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
#: a token starting with '-' is a flag's value only as '-' or a negative
#: number, which is a match of Python 3.13 argparse's pattern.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _spec(command: str, table, flags) -> tuple:
    """A command's start namespace in the declared order, each option's dest,
    type and choices (None for -h and --help), and its required options."""
    start, options = {"command": command}, {"-h": None, "--help": None}
    for option, kind, default in (("--output", str, None), *flags):
        dest = option[2:].replace("-", "_")
        start[dest] = None if default is _REQUIRED else default
        options[option] = (dest, str, kind) if isinstance(kind, tuple) else (dest, kind, None)
    return {**start, "table": table}, options, [option for option, _, d in flags if d is _REQUIRED]


_COMMAND_SPECS = {name: _spec(name, table, flags) for name, (_, table, flags) in _COMMANDS.items()}


def _diagnose(line: str) -> None:
    """Print one diagnostic line on stderr.  A stderr that cannot take it
    loses the line, and the failure's exit code stands: None, when the
    interpreter started with descriptor 2 closed, or a stream whose write
    fails (a full device, a descriptor closed under it)."""
    if sys.stderr is None:  # print(file=None) would write to stdout
        return
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _usage(message: str, choices=()) -> NoReturn:
    """Print a usage error, with the ``choices`` a value may take, and exit 2."""
    tail = f" (choose from {', '.join(choices)})" if choices else ""
    _diagnose(f"{PROG}: error: {message}{tail}")
    raise SystemExit(2)


def _help(command: str | None, text: str | None) -> NoReturn:
    """Print each command with its help line, or ``command``'s flags in the
    declared order, and exit 0; -h takes no value."""
    if text is not None:
        _usage(f"argument -h/--help: ignored explicit argument {text!r}")
    rows = {"-h, --help": "show this help and exit"}
    if command is None:
        rows.update((name, entry[0]) for name, entry in _COMMANDS.items())
    else:
        rows["--output PATH"] = "write CSV here instead of stdout"
        for option, kind, default in _COMMANDS[command][2]:
            metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else kind.__name__.upper()
            rows[f"{option} {metavar}"] = "required" if default is _REQUIRED else ""
    width = max(map(len, rows)) + 2
    print(f"usage: {PROG} {command or 'COMMAND'} [--flag VALUE ...]\n",
          *(f"  {left:{width}}{right}".rstrip() for left, right in rows.items()), sep="\n")
    raise SystemExit(0)


def _config(args: SimpleNamespace) -> list[tuple[str, object]]:
    """The ``# key: value`` pairs: each flag but --output not None, in the declared order."""
    items = vars(args).items()
    return [(k, v) for k, v in items if v is not None and k not in ("command", "output", "table")]


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command and its flags, each ``--flag VALUE``,
    ``--flag=VALUE`` or a unique prefix of --flag, read from the left: a
    repeated flag keeps its last value, and -h or a bad value ends the parse.
    After the last flag, a missing required one, then a token no flag takes,
    is a usage error; each prints one line and exits 2."""
    if not argv:
        _usage("the following arguments are required: command")
    if argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0]):
        _help(None, None)
    if argv[0] not in _COMMAND_SPECS:
        _usage(f"argument command: invalid choice: {argv[0]!r}", _COMMANDS)
    start, options, required = _COMMAND_SPECS[argv[0]]
    values, unknown, tokens = dict(start), [], iter(argv[1:])
    for token in tokens:
        option, text = token, None
        if token not in options:  # --flag=VALUE, or a unique prefix of a --flag
            option, eq, text = token.partition("=")
            if option not in options and option.startswith("--") and len(option) > 2:
                matches = [name for name in options if name.startswith(option)]
                if len(matches) > 1:
                    _usage(f"ambiguous option: {token} could match {', '.join(matches)}")
                option = matches[0] if matches else None
            if option not in options:
                unknown.append(token)
                continue
            text = text if eq else None
        if options[option] is None:
            _help(argv[0], text)
        dest, kind, choices = options[option]
        if text is None:
            text = next(tokens, "--")
            if text.startswith("-") and text != "-" and not _NEGATIVE_NUMBER.match(text):
                text = "--"
        if text == "--":
            _usage(f"argument {option}: expected one argument")
        try:
            value = kind(text)
        except ValueError:
            _usage(f"argument {option}: invalid {kind.__name__} value: {text!r}")
        if choices is not None and value not in choices:
            _usage(f"argument {option}: invalid choice: {text!r}", choices)
        values[dest] = value
    missing = [option for option in required if values[options[option][0]] is None]
    if missing:
        _usage(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _usage(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        table = args.table(args)
        output = _open_output(args.output)
    except _UsageError as exc:
        _diagnose(f"{PROG}: error: {exc}")
        return 2
    except (analysis.QuadratureConvergenceError, qmath.EigenConvergenceError,
            np.linalg.LinAlgError) as exc:
        _diagnose(f"{PROG}: numeric failure: {exc}")
        return 1
    chunks = _render(args.command, _config(args), *table)
    try:
        try:
            if output is None:  # sys.stdout of a process started with descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            if output is sys.stdout:
                for chunk in chunks:
                    output.write(chunk.decode("ascii"))
                output.flush()
            else:
                for chunk in chunks:
                    output.write(chunk)
        finally:
            if output is not sys.stdout:
                output.close()
    except OSError as exc:
        target = "stdout" if args.output is None else repr(args.output)
        _diagnose(f"{PROG}: write failure: {exc.strerror or exc}: {target}")
        return 1
    return 0


def run() -> None:
    """The console script: exit with main's status.  After a failed write
    to stdout, its file descriptor is pointed at os.devnull, so the flush
    at interpreter exit cannot fail on the same bytes again."""
    status = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(status)
