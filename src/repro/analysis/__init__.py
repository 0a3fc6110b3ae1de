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
"""

from repro.analysis.diagnostics import (
    DiagnosticsReport,
    DiagnosticsStats,
    diagnose,
    mus,
    redundant_constraints,
)
from repro.analysis.extent_bounds import ExtentBounds, extent_bounds
from repro.analysis.repair import (
    DeleteConstraint,
    DropAttribute,
    LoosenChild,
    Repair,
    RepairAction,
    RepairStats,
    apply_repair,
    minimal_repair,
)

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
