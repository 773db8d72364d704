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

``import qclone`` loads this file alone: no numpy, no submodule.  Each
exported name is declared once, in _EXPORTS under its home submodule, and
``__all__`` is built from that table.  The first access to an exported
name or to one of the five submodules imports the submodule (PEP 562).
Whenever the import system binds a submodule to the package, however that
import was made, the package binds the submodule's exports as well, so
later lookups are plain attribute reads.  A name rebound in the package
(as the benchmark's span recorder does, in every qclone namespace that
holds the function) stays rebound until it is set back.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: each exported name, under the submodule that defines it.
_EXPORTS = {
    "analysis": (
        "QuadratureConvergenceError",
        "family_eof",
        "family_mean",
        "mean_entanglement",
        "mean_entanglement_acm",
    ),
    "cloners": (
        "ConstraintViolatedError",
        "ShrinkParams",
        "acm_boundary_s2",
        "acm_degenerate",
        "acm_region_value",
        "clone",
        "family_shrink",
        "wzcm_full_output",
    ),
    "entanglement": ("EntanglementReport", "concurrence", "eof_from_concurrence", "fidelity"),
    "qmath": (
        "EigenConvergenceError",
        "NotHermitianError",
        "NotNormalizedError",
        "NotPSDError",
        "partial_trace",
    ),
    "states": ("psi_minus_family",),
}
#: the home submodule of each exported name.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


class _Package(types.ModuleType):
    """The package's module type: binding one of the five submodules to
    the package binds that submodule's exports too."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            for export in _EXPORTS[name]:
                super().__setattr__(export, getattr(value, export))


def __getattr__(name):
    """An exported name or a submodule not bound yet: import its home
    submodule (a submodule is its own home), which binds both."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    return home if name == module else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


sys.modules[__name__].__class__ = _Package
