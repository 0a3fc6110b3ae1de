"""Integer linear programming substrate.

The paper reduces consistency of unary constraints to linear integer
programming (Theorem 4.1). This package supplies:

* :mod:`repro.ilp.model` — a solver-independent system of integer linear
  constraints over named variables;
* :mod:`repro.ilp.exact` — a certified rational revised dual simplex with
  warm-started branch-and-bound (parent-basis reuse, bound-patch API
  mirroring the assembled core), used to certify instances and as the
  fallback when a float solve is in doubt;
* :mod:`repro.ilp.bounds` — the Papadimitriou small-solution bound used by
  the paper's big-M argument;
* :mod:`repro.ilp.assembled` — the one floating-point solver (HiGHS,
  loaded straight from the extension file scipy vendors; no scipy Python
  package is imported on any path) with post-hoc exact verification of
  solutions by a numpy row residual; the base system's row-wise
  compressed matrix is built a single time and every support branch
  re-solves it by patching variable-bound arrays (DESIGN.md section 4);
* :mod:`repro.ilp.condsys` — conditional systems ``x > 0 -> y > 0`` with
  tree-connectivity side conditions, solved by support branching plus
  connectivity cuts (see DESIGN.md section 3).

The exports resolve lazily (PEP 562): importing any ``repro.ilp``
submodule runs this file first, and the rational simplex is only needed
when a float answer is in doubt.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AssembledSystem",
    "BoundPatch",
    "ExactAssembledSystem",
    "ExactStats",
    "LinearSystem",
    "Row",
    "SolveResult",
    "solve_exact",
    "papadimitriou_bound",
    "ConditionalSystem",
    "SupportClause",
    "CondSolveStats",
    "solve_conditional_system",
]

#: Exported name -> defining submodule, imported on first access.
_EXPORTS = {
    "AssembledSystem": "repro.ilp.assembled",
    "BoundPatch": "repro.ilp.model",
    "ExactAssembledSystem": "repro.ilp.exact",
    "ExactStats": "repro.ilp.exact",
    "LinearSystem": "repro.ilp.model",
    "Row": "repro.ilp.model",
    "SolveResult": "repro.ilp.model",
    "solve_exact": "repro.ilp.exact",
    "papadimitriou_bound": "repro.ilp.bounds",
    "ConditionalSystem": "repro.ilp.condsys",
    "SupportClause": "repro.ilp.condsys",
    "CondSolveStats": "repro.ilp.condsys",
    "solve_conditional_system": "repro.ilp.condsys",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, __all__)
