"""Specification analysis: the paper's Section-6 programme, made concrete.

The paper closes by proposing to "use integrity constraints to distinguish
good XML design from bad design". This package builds that layer on top of
the decision procedures:

* :mod:`repro.analysis.extent_bounds` — the feasible range of
  ``|ext(tau)|`` across all documents satisfying a specification, i.e. the
  cardinality interaction between the DTD and the constraints made
  directly visible (the quantity driving the Section-1 inconsistency);
* :mod:`repro.analysis.diagnostics` — why is a specification
  inconsistent (minimal inconsistent subsets of Sigma, :func:`mus`) and
  which constraints are redundant (implied by the rest)?
* :mod:`repro.analysis.repair` — how to *fix* an inconsistent
  specification: a minimum-weight set of constraint deletions and DTD
  edits after which the specification is consistent.

Diagnostics and repair resolve lazily (PEP 562): every import of an
analysis submodule runs this file first, and ``extent_bounds`` alone
should not pay for the other two.
"""

from repro._lazy import lazy_exports

# Eager on purpose: the function shares its submodule's name, and importing
# ``repro.analysis.extent_bounds`` binds the *module* on this package, which
# a lazy ``__getattr__`` would never get to override.  Its imports are the
# checker's own, so this costs next to nothing.
from repro.analysis.extent_bounds import ExtentBounds, extent_bounds

__all__ = [
    "ExtentBounds",
    "extent_bounds",
    "mus",
    "redundant_constraints",
    "DiagnosticsReport",
    "DiagnosticsStats",
    "diagnose",
    "Repair",
    "RepairAction",
    "RepairStats",
    "DeleteConstraint",
    "LoosenChild",
    "DropAttribute",
    "apply_repair",
    "minimal_repair",
]

#: Exported name -> defining submodule, imported on first access.
_EXPORTS = {
    "mus": "repro.analysis.diagnostics",
    "redundant_constraints": "repro.analysis.diagnostics",
    "DiagnosticsReport": "repro.analysis.diagnostics",
    "DiagnosticsStats": "repro.analysis.diagnostics",
    "diagnose": "repro.analysis.diagnostics",
    "Repair": "repro.analysis.repair",
    "RepairAction": "repro.analysis.repair",
    "RepairStats": "repro.analysis.repair",
    "DeleteConstraint": "repro.analysis.repair",
    "LoosenChild": "repro.analysis.repair",
    "DropAttribute": "repro.analysis.repair",
    "apply_repair": "repro.analysis.repair",
    "minimal_repair": "repro.analysis.repair",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
