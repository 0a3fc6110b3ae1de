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
  loaded straight from the binding scipy vendors) with post-hoc exact
  verification of solutions; the base system's sparse matrix is built a
  single time and every support branch re-solves it by patching
  variable-bound arrays (DESIGN.md section 4);
* :mod:`repro.ilp.condsys` — conditional systems ``x > 0 -> y > 0`` with
  tree-connectivity side conditions, solved by support branching plus
  connectivity cuts (see DESIGN.md section 3).
"""

from repro.ilp.assembled import AssembledSystem
from repro.ilp.bounds import papadimitriou_bound
from repro.ilp.condsys import (
    ConditionalSystem,
    CondSolveStats,
    SupportClause,
    solve_conditional_system,
)
from repro.ilp.exact import ExactAssembledSystem, ExactStats, solve_exact
from repro.ilp.model import BoundPatch, LinearSystem, Row, SolveResult

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
