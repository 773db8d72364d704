"""Quantum cloning machines for two-qubit states and their entanglement.

The package simulates three cloning machines acting on the psi-minus family
of partially entangled pairs: the extended Wootters-Zurek machine (wzcm),
the symmetric universal machine (scm, any number of copies) and the
asymmetric machine (acm, independent shrink factors for the two copies).
:mod:`qclone.cloners` holds the table of what each machine does.  Clone
quality is measured by concurrence and entanglement of formation; the
family's closed-form entanglement and its alpha averages live in
:mod:`qclone.analysis`, and the ``qclone`` console script emits the
figures built from them as CSV.
"""

from .analysis import (
    QuadratureConvergenceError,
    family_eof,
    family_mean,
    mean_entanglement,
    mean_entanglement_acm,
)
from .cloners import (
    ConstraintViolatedError,
    ShrinkParams,
    acm_boundary_s2,
    acm_clone_closed,
    acm_degenerate,
    acm_region_value,
    clone,
    family_shrink,
    shrink_map,
    wzcm_clone,
    wzcm_clone_closed,
    wzcm_full_output,
)
from .entanglement import (
    EntanglementReport,
    NotXStateError,
    concurrence,
    concurrence_xstate,
    eof_from_concurrence,
    fidelity,
)
from .qmath import (
    EigenConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    partial_trace,
)
from .states import (
    BELL_ORDER,
    bell_state,
    density_of,
    psi_minus_family,
    to_bell_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_ORDER",
    "ConstraintViolatedError",
    "EigenConvergenceError",
    "EntanglementReport",
    "NotHermitianError",
    "NotNormalizedError",
    "NotPSDError",
    "NotXStateError",
    "QuadratureConvergenceError",
    "ShrinkParams",
    "acm_boundary_s2",
    "acm_clone_closed",
    "acm_degenerate",
    "acm_region_value",
    "bell_state",
    "clone",
    "concurrence",
    "concurrence_xstate",
    "density_of",
    "eof_from_concurrence",
    "family_eof",
    "family_mean",
    "family_shrink",
    "fidelity",
    "mean_entanglement",
    "mean_entanglement_acm",
    "partial_trace",
    "psi_minus_family",
    "shrink_map",
    "to_bell_basis",
    "wzcm_clone",
    "wzcm_clone_closed",
    "wzcm_full_output",
    "__version__",
]
