"""The table a figure command hands to the CSV renderer, shared by the tests."""

import qclone.cli


def figure_table(argv: list[str]):
    """Header, columns and masks that ``qclone.cli.main(argv)`` renders.

    ``qclone.cli._render`` is replaced by a spy for the call, so the
    columns keep every bit the command computed: (grid, index) pairs are
    decoded to ``grid[index]``, and the masks hold one entry per column,
    None where a column has none.
    """
    seen = {}

    def spy(command, config, header, columns, missing=None):
        seen["header"] = header
        seen["columns"] = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
        seen["missing"] = list(missing or (None,) * len(columns))
        return iter(())

    render = qclone.cli._render
    qclone.cli._render = spy
    try:
        assert qclone.cli.main(argv) == 0
    finally:
        qclone.cli._render = render
    return seen["header"], seen["columns"], seen["missing"]
