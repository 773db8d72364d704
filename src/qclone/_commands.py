"""The CLI's commands: each builds its table, and _render writes its CSV.

The front, :mod:`qclone.cli`, imports this module once a command line
parses and passes the command's input rules, so numpy and the library
modules load only for a command that computes.  Each command, _cmd_NAME,
takes the parsed namespace and returns its table, (header, columns),
before a byte is written, so a numeric failure writes nothing; _render
then formats the rows BLOCK_ROWS at a time, never held as one string.
The comment and header lines go out with the first block.  A column may
be coded as values[index], and each values array is formatted once per
command however many columns and rows share it: the grid of fig2 and
fig4, fig4's boundary s2, fig5's two constant reference means.

Each input that several commands share is built in one place: _grid the
grid of --grid-points, _rows the n x n row layout of fig2, fig4 and
clone's 4x4 matrix, _sweep the boundary s2 and degenerate flags of fig3,
fig4 and fig5, and _REFERENCE_SHRINKS the wzcm and two-copy scm shrinks
of fig1 and fig5.

The CSV is formatted as ASCII bytes, one bytes % per block.
"""

from __future__ import annotations

import decimal
from typing import Iterator

import numpy as np

from . import analysis, cloners, entanglement, qmath, states

#: the failures a command reports as numeric, exit 1.
NUMERIC_ERRORS = (analysis.QuadratureConvergenceError, qmath.EigenConvergenceError,
                  np.linalg.LinAlgError)
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


def _grid(n: int) -> np.ndarray:
    """The uniform grid of --grid-points ``n`` points.

    These are the operations of np.linspace(0.0, 1.0, n): i times the step
    1/(n-1), the last point set to 1.0, so the grid is linspace's bit for
    bit (tested for every accepted n).  linspace itself spends longer on
    its argument handling than on the grid at the default size."""
    grid = np.arange(n) * (1.0 / (n - 1))
    grid[-1] = 1.0
    return grid


def _rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two indices of the n x n row layout: row i takes i // n and
    i % n, the ravel order of the (n, n) broadcast of (x[:, None], y)."""
    return np.divmod(np.arange(n * n), n)


def _sweep(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The s1 grid of --grid-points, s2 on --branch of the region boundary,
    clipped to [0, 1], and each pair's degenerate flag.  The lower branch
    drops below s2 = 0 for s1 > 3/4 (to -0.0667), and the clip moves those
    points to the edge s2 = 0: 49 of the 201 default s1 points.  At 1 the
    clip only absorbs rounding.  The grid lies in [0, 1] and --branch is a
    parsed choice, so the unchecked kernel serves.  No pair leaves the acm
    region by more than a few eps at any accepted --grid-points (tested)."""
    s1 = _grid(args.grid_points)
    s2 = np.minimum(np.maximum(cloners._acm_boundary_s2(s1, args.branch), 0.0), 1.0)
    return s1, s2, cloners.acm_degenerate(s1, s2)


def _clone_matrix(args) -> tuple[np.ndarray, np.ndarray]:
    """The input state of clone/entangle and its clone matrix.  An unset
    scm --clones is stored as the 2 it stands for, so the config names it."""
    if args.machine == "scm" and args.clones is None:
        args.clones = 2
    state = states.psi_minus_family(args.alpha)
    return state, cloners.clone(state, args.machine, args.clones, args.s1)


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
    if args.machine == "acm":
        params = cloners.ShrinkParams(args.s1, args.s2)
        result = analysis.mean_entanglement_acm(params, args.quad_tol)
    else:
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
    outer, inner = _rows(grid.size)
    s1, s2 = grid[:, None], grid
    eof = analysis._family_eof(args.alpha, grid)
    # pairs outside the region take index -1 and get no average
    kept = (cloners.acm_region_value(s1, s2) <= cloners.CONSTRAINT_SLACK).ravel().nonzero()[0]
    index = np.empty(outer.size, dtype=int)
    index.fill(-1)
    index[kept] = np.arange(kept.size)
    values = 0.5 * (eof[outer[kept]] + eof[inner[kept]])
    degenerate = cloners.acm_degenerate(s1, s2).ravel()
    columns = [(grid, outer), (grid, inner), (values, index), degenerate]
    return ["s1", "s2", "avg_eof", "degenerate"], columns


def _cmd_fig3(args) -> tuple:
    s1, s2, degenerate = _sweep(args)
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
    # one quadrature pass: both copies of every pair, then the reference shrinks
    means = analysis.family_mean(np.concatenate((s1, s2, _REFERENCE_SHRINKS)), args.quad_tol).value
    n = s1.size
    value = 0.5 * (means[:n] + means[n : 2 * n])
    # the reference means are constant columns: one text each, every row index 0
    first = np.zeros(n, dtype=int)
    columns = [s1, s2, value, (means[-2:-1], first), (means[-1:], first), degenerate]
    header = ["s1", "s2", "mean_eof_acm", "mean_eof_wzcm", "mean_eof_scm", "degenerate"]
    return header, columns
