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
import sys
from typing import Iterator

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
    masked points print as outside_region.
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
                part = table[index[lo : lo + m]]
            else:
                part = col[lo : lo + m]
                if mask is not None:
                    text = np.array(_texts(part), dtype=object)
                    part = np.where(mask[lo : lo + m], "outside_region", text)
            cells[j::k] = part.tolist()
        yield row * m % tuple(cells)


class _UsageError(Exception):
    pass


def _open_output(path: str | None):
    """stdout, or the file at ``path`` opened for writing; an unopenable
    path is a usage error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="ascii", newline="\n")
    except OSError as exc:
        raise _UsageError(f"--output: {exc.strerror}: {path!r}") from exc


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


def _repeat_tile(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of the outer (np.repeat) and inner (np.tile) input of
    the rows of an n x n sweep."""
    index = np.arange(n)
    return np.repeat(index, n), np.tile(index, n)


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
    wz, sc = analysis.family_eof(grid, [[1.0], [cloners.scm_shrink_factor(2)]])
    config = [("grid_points", args.grid_points)]
    return _render("fig1", config, ["alpha", "eof_wzcm", "eof_scm"], [grid, wz, sc])


def _cmd_fig2(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    series = analysis.acm_region_grid(args.grid_points, args.alpha)
    grid = analysis.uniform_grid(args.grid_points)
    outer, inner = _repeat_tile(args.grid_points)
    columns = [(grid, outer), (grid, inner), *series.columns[2:]]
    config = [("alpha", float(args.alpha)), ("grid_points", args.grid_points)]
    return _render("fig2", config, series.axis_names, columns, series.missing)


def _cmd_fig3(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_unit("--alpha", args.alpha)
    grid = analysis.uniform_grid(args.grid_points)
    series = analysis.acm_curve_sweep(grid, args.branch, alpha=args.alpha)
    config = [
        ("alpha", float(args.alpha)),
        ("branch", args.branch),
        ("grid_points", args.grid_points),
    ]
    return _render("fig3", config, series.axis_names, series.columns)


def _cmd_fig4(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    grid = analysis.uniform_grid(args.grid_points)
    series = analysis.acm_alpha_surface(grid, grid, args.branch)
    outer, inner = _repeat_tile(args.grid_points)
    # s2 runs as np.tile(s2s, n): its first n rows are the s2 of each s1
    s2s = series.columns[2][: args.grid_points]
    columns = [(grid, outer), (grid, inner), (s2s, inner), *series.columns[3:]]
    config = [("branch", args.branch), ("grid_points", args.grid_points)]
    return _render("fig4", config, series.axis_names, columns)


def _cmd_fig5(args) -> Iterator[str]:
    _check_grid(args.grid_points)
    _check_tol(args.quad_tol)
    grid = analysis.uniform_grid(args.grid_points)
    series = analysis.acm_curve_sweep(grid, args.branch, alpha=None, tol=args.quad_tol)
    mean_wz = analysis.mean_entanglement("wzcm", args.quad_tol).value
    mean_sc = analysis.mean_entanglement("scm", args.quad_tol).value
    s1, s2, value, degenerate = series.columns
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
