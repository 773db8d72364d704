"""The table a figure command hands to the CSV renderer, shared by the tests."""

import numpy as np

import qclone._commands
import qclone.cli


def figure_table(argv: list[str]):
    """Header, columns and masks that ``qclone.cli.main(argv)`` renders.

    ``qclone._commands._render`` is replaced by a spy for the call, so the
    columns keep every bit the command computed: (values, index) pairs
    are decoded to ``values[index]``, with NaN where the index is -1 (a
    cell printed as outside_region), and the masks hold one entry per
    column: ``index < 0`` for a pair, None for a plain column.
    """
    seen = {}

    def spy(command, config, header, columns):
        seen["header"] = header
        seen["columns"] = [
            np.append(c[0], np.nan)[c[1]] if isinstance(c, tuple) else c for c in columns
        ]
        seen["masks"] = [c[1] < 0 if isinstance(c, tuple) else None for c in columns]
        return iter(())

    render = qclone._commands._render
    qclone._commands._render = spy
    try:
        assert qclone.cli.main(argv) == 0
    finally:
        qclone._commands._render = render
    return seen["header"], seen["columns"], seen["masks"]
