"""The choices and defaults that the library and the CLI's flag table share.

This module imports nothing, so the CLI can parse a command line and print
its help without loading numpy or any library module.  ``qclone.cloners``
and ``qclone.analysis`` read their names from here and keep them under
the same names.
"""

#: the machines of the table, in the order the CLI offers them.
MACHINES = ("wzcm", "scm", "acm")
#: the two branches of the acm region's boundary curve.
BRANCHES = ("upper", "lower")
#: default absolute tolerance of the quadratures.
QUAD_DEFAULT_TOL = 1e-7
#: default number of grid points for figure sweeps.
GRID_POINTS_DEFAULT = 201
#: largest accepted --grid-points: fig2 and fig4 write n^2 rows, and at
#: 1001 (a million rows, 31 MB of CSV for fig2) an in-process run to a
#: file took 0.32-0.38 s for fig2 (alpha 1/sqrt(2) and 0.9) and 0.44-0.50 s
#: for fig4 (both branches; best of 5, twice each, shared 2-vCPU Xeon host).
GRID_POINTS_MAX = 1001
