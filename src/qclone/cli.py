"""Command-line interface emitting deterministic CSV data series.

This module is the numpy-free front: the table of commands and flags, the
parser, each command's input rules, -h, the output sink, the diagnostics
and the exit codes.  It imports no library module, so -h and every usage
error but an unopenable --output cost the interpreter's start-up and no
more.  The commands, with the CSV renderer, live in qclone._commands,
which the first command line that passes its rules imports.

Output format, shared by every command: `# key: value` comment lines
recording the exact configuration, one header row naming the columns,
then data rows.  The comment lines are `# command: NAME`, then one line
per flag other than --output whose value is not None, keyed by its
flag name (`--grid-points` is `grid_points`), in the order the
command declares its flags, floats by repr; an unset scm --clones is
written as the 2 it stands for.  Fields are comma-separated, floats carry
9 significant digits (mean's error estimate 2, rounded up), line endings
are Unix.  Identical flags produce identical bytes.  A command runs only
after its values pass its input rules, and it returns its table before a
byte is written, so numeric and usage failures write nothing.

Every command and flag is declared once, in the table _COMMANDS, and
_parse reads every command line, and -h lists every flag, from it.  The
rules in _RULES then judge the values, each by the library's own check.

sys.stdout, a text stream that callers may replace, receives the decoded
text of each block of CSV bytes; with --output PATH the bytes go to the
file as they are: one os.write per block on its descriptor (more only
after a short write), with no encode, stream or buffer in between.
--output rewrites the file in place: an existing file keeps its inode and
its mode, so hard links and symlinks to it see the new CSV; a new one gets
0o666 less the umask.  The CSV is written over the old bytes from the
start and the file is then cut to the new length, so a failed write
leaves a prefix of the new CSV, never new bytes followed by old ones.  The
rewrite is not atomic and nothing is fsynced; to replace a file
atomically, write to a new path and rename it over the old one.

Exit codes: 0 on success, 1 when a quadrature, an eigensolve or the
concurrence SVD fails to converge (the diagnostic names it) and when
writing the CSV or the -h listing fails (it names the output, and may
leave part of it written), 2 on a usage error: a command line _parse
rejects, a value a rule rejects, an unopenable --output path.  Each prints
one line on stderr; with descriptor 2 closed the line is lost, and the
exit code stays the same.
"""

from __future__ import annotations

import errno
import math
import os
import re
import stat
import sys
from types import SimpleNamespace
from typing import NoReturn

from ._constants import BRANCHES, GRID_POINTS_DEFAULT, MACHINES, QUAD_DEFAULT_TOL
from ._constants import check_clones, check_grid_points, check_machine_args, check_mean_args
from ._constants import check_region, check_tol, check_unit

PROG = "qclone"

_SINGLET_ALPHA = 1.0 / math.sqrt(2.0)


class _FileSink:
    """The --output file, rewritten in place as the module says: one
    os.write per block, more only after a short write; ``end`` counts the
    bytes written."""

    def __init__(self, path: str) -> None:
        # no O_TRUNC: truncating a file that holds data to length 0 makes
        # ext4 start writeback at close; the stale tail is cut on close
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        self.end = 0

    def write(self, data: bytes) -> None:
        while data:
            n = os.write(self.fd, data)
            self.end += n
            data = data[n:]

    def close(self) -> None:
        """Cut a regular file at ``end``, written or not (devices and FIFOs
        cannot be cut), then close ``fd``."""
        try:
            info = os.fstat(self.fd)
            if stat.S_ISREG(info.st_mode) and info.st_size > self.end:
                os.ftruncate(self.fd, self.end)
        finally:
            os.close(self.fd)


def _to_stdout(texts) -> None:
    """Write each text to sys.stdout, then flush it.  A process started
    with descriptor 1 closed has sys.stdout None, which fails as EBADF."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    for text in texts:
        sys.stdout.write(text)
    sys.stdout.flush()


#: the default of a flag that a command requires.
_REQUIRED = object()
# a flag is (option, type or choices, default); each shared one is written once
_GRID_POINTS = ("--grid-points", int, GRID_POINTS_DEFAULT)
_BRANCH = ("--branch", BRANCHES, "upper")
_QUAD_TOL = ("--quad-tol", float, QUAD_DEFAULT_TOL)
_FIGURE_ALPHA = ("--alpha", float, _SINGLET_ALPHA)
_MACHINE = ("--machine", MACHINES, _REQUIRED)
_S1 = ("--s1", float, None)
_CLONE_FLAGS = (_MACHINE, ("--alpha", float, _REQUIRED), ("--clones", int, None), _S1)
#: each command: its help line, the name of the function in
#: qclone._commands that builds its table, and its flags after --output,
#: in -h order.
_COMMANDS = {
    "fig1": ("per-alpha clone entanglement, both symmetric machines",
             "_cmd_fig1", (_GRID_POINTS,)),
    "fig2": ("two-copy average entanglement over the (s1, s2) square",
             "_cmd_fig2", (_FIGURE_ALPHA, _GRID_POINTS)),
    "fig3": ("two-copy average entanglement along a boundary branch",
             "_cmd_fig3", (_FIGURE_ALPHA, _BRANCH, _GRID_POINTS)),
    "fig4": ("boundary-branch average entanglement over (alpha, s1)",
             "_cmd_fig4", (_BRANCH, _GRID_POINTS)),
    "fig5": ("alpha-averaged entanglement along a boundary branch",
             "_cmd_fig5", (_BRANCH, _GRID_POINTS, _QUAD_TOL)),
    "clone": ("density matrix of a single clone", "_cmd_clone", _CLONE_FLAGS),
    "entangle": ("entanglement report for a single clone", "_cmd_entangle", _CLONE_FLAGS),
    "mean": ("clone entanglement averaged over the input family",
             "_cmd_mean", (_MACHINE, _QUAD_TOL, _S1, ("--s2", float, None))),
}
# a rule is (the text in front of its message, its check of the namespace).
# Once the machine/flag combination holds, clone's --clones is scm's and
# --s1 acm's, and mean's --s1 and --s2 are both set, for acm only
_CLONE_WORDS = ("--machine", "--clones", "--s1")
_GRID_RULE = ("", lambda a: check_grid_points(a.grid_points))
_TOL_RULE = ("--quad-tol: ", lambda a: check_tol(a.quad_tol))
_FIGURE_RULES = (_GRID_RULE, ("", lambda a: check_unit("--alpha", a.alpha)))
_CLONE_RULES = (
    ("", lambda a: check_machine_args(a.machine, a.clones, a.s1, _CLONE_WORDS)),
    ("--alpha: ", lambda a: check_unit("alpha", a.alpha)),
    ("--clones: ", lambda a: a.clones is None or check_clones(a.clones)),
    ("--s1: ", lambda a: a.s1 is None or check_unit("s", a.s1)),
)
_MEAN_RULES = (
    _TOL_RULE,
    ("", lambda a: check_mean_args(a.machine, a.s1, a.s2)),
    ("--s1/--s2: ", lambda a: a.s1 is None or check_unit("s1", a.s1)),
    ("--s1/--s2: ", lambda a: a.s1 is None or check_unit("s2", a.s2)),
    ("--s1/--s2: ", lambda a: a.s1 is None or check_region(a.s1, a.s2)),
)
#: each command's rules in the order it reads its inputs; the first ValueError is the usage error.
_RULES = {"fig1": (_GRID_RULE,), "fig2": _FIGURE_RULES, "fig3": _FIGURE_RULES,
          "fig4": (_GRID_RULE,), "fig5": (_GRID_RULE, _TOL_RULE),
          "clone": _CLONE_RULES, "entangle": _CLONE_RULES, "mean": _MEAN_RULES}
#: a token starting with '-' is a flag's value only as '-' or a negative
#: number, which is a match of Python 3.13 argparse's pattern.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")
#: qclone._commands, once a command line has passed its rules.
_commands = None


def _spec(command: str, flags) -> tuple:
    """A command's start namespace in the declared order, each option's dest,
    type and choices (None for -h and --help), and its required options."""
    start, options = {"command": command}, {"-h": None, "--help": None}
    for option, kind, default in (("--output", str, None), *flags):
        dest = option[2:].replace("-", "_")
        start[dest] = None if default is _REQUIRED else default
        options[option] = (dest, str, kind) if isinstance(kind, tuple) else (dest, kind, None)
    return start, options, [option for option, _, d in flags if d is _REQUIRED]


_COMMAND_SPECS = {name: _spec(name, flags) for name, (_, _, flags) in _COMMANDS.items()}


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


def _write_failure(exc: OSError, target: str) -> None:
    _diagnose(f"{PROG}: write failure: {exc.strerror or exc}: {target}")


def _usage(message: str, choices=()) -> NoReturn:
    """Print a usage error, with the ``choices`` a value may take, and exit 2."""
    tail = f" (choose from {', '.join(choices)})" if choices else ""
    _diagnose(f"{PROG}: error: {message}{tail}")
    raise SystemExit(2)


def _help(command: str | None, text: str | None) -> NoReturn:
    """Print each command with its help line, or ``command``'s flags in the
    declared order, and exit 0; -h takes no value.  A stdout that cannot
    take the listing is a write failure, exit 1."""
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
    lines = [f"usage: {PROG} {command or 'COMMAND'} [--flag VALUE ...]\n",
             *(f"  {left:{width}}{right}".rstrip() for left, right in rows.items())]
    try:
        _to_stdout(["\n".join(lines) + "\n"])
    except OSError as exc:
        _write_failure(exc, "stdout")
        raise SystemExit(1) from exc
    raise SystemExit(0)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command and its flags, each ``--flag VALUE``,
    ``--flag=VALUE`` or a unique prefix of --flag, read from the left: a
    repeated flag keeps its last value, and -h or a bad value ends the parse.
    After the last flag, a missing required one, then a token no flag takes,
    is a usage error; each prints one line and exits 2.  The values are
    not judged here: main applies the command's rules to them."""
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
    for prefix, rule in _RULES[args.command]:
        try:
            rule(args)
        except ValueError as exc:
            _diagnose(f"{PROG}: error: {prefix}{exc}")
            return 2
    global _commands
    if _commands is None:
        from . import _commands as commands

        _commands = commands
    try:
        table = getattr(_commands, _COMMANDS[args.command][1])(args)
    except _commands.NUMERIC_ERRORS as exc:
        _diagnose(f"{PROG}: numeric failure: {exc}")
        return 1
    try:
        output = None if args.output is None else _FileSink(args.output)
    except OSError as exc:  # an unopenable --output is a usage error
        _diagnose(f"{PROG}: error: --output: {exc.strerror}: {args.output!r}")
        return 2
    items = vars(args).items()
    config = [(k, v) for k, v in items if v is not None and k not in ("command", "output")]
    chunks = _commands._render(args.command, config, *table)
    try:
        if output is None:
            _to_stdout(chunk.decode("ascii") for chunk in chunks)
        else:
            try:
                for chunk in chunks:
                    output.write(chunk)
            finally:
                output.close()
    except OSError as exc:
        _write_failure(exc, "stdout" if output is None else repr(args.output))
        return 1
    return 0


def run() -> None:
    """The console script: exit with main's status, or with the status of
    the SystemExit that -h or a usage error raises.  After a failed write
    to stdout, its file descriptor is pointed at os.devnull, so the flush
    at interpreter exit cannot fail on the same bytes again.

    OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads, after the parse,
    and starts a thread pool of one thread per CPU unless it is set; no
    4x4 product gains from the pool, so an unset variable becomes 1 here.
    A value the user sets is kept, and main leaves it alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        raise SystemExit(main())
    finally:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
