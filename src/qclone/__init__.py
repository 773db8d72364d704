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
    acm_degenerate,
    acm_region_value,
    clone,
    family_shrink,
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
from .states import psi_minus_family

__version__ = "0.1.0"

__all__ = [
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
    "acm_degenerate",
    "acm_region_value",
    "clone",
    "concurrence",
    "concurrence_xstate",
    "eof_from_concurrence",
    "family_eof",
    "family_mean",
    "family_shrink",
    "fidelity",
    "mean_entanglement",
    "mean_entanglement_acm",
    "partial_trace",
    "psi_minus_family",
    "wzcm_full_output",
    "__version__",
]
