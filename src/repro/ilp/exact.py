"""Exact integer linear programming over rationals, warm-started.

A bounded-variable **revised dual simplex** on :class:`fractions.Fraction`
arithmetic with depth-first branch and bound for integrality.  No floating
point anywhere, so answers are certified — this is the oracle the scipy
backend is cross-checked against in tests, and the fallback when a rounded
HiGHS solution fails exact verification.

The core design mirrors :mod:`repro.ilp.assembled` (DESIGN.md section 5):
every row ``a.x <sense> b`` is stored once as the equality ``a.x + s = b``
with the sense encoded in the *bounds* of the slack ``s``, so every search
delta — a branching bound ``x_j <= floor(v)`` / ``x_j >= ceil(v)``, a
support patch from :mod:`repro.ilp.condsys`, or the (de)activation of a
pooled connectivity cut — is a variable-bound change, never a new row.
Bound changes preserve dual feasibility of the current basis, so each
branch-and-bound child re-solves by a handful of dual-simplex pivots
warm-started from its parent's factorized basis instead of a fresh
two-phase solve.  ``warm=False`` refactorizes from the all-slack basis at
every node — the cold reference path the differential fuzz harness
(:mod:`tests.test_differential_fuzz`) cross-checks against, through the
``exact_cold`` oracle of ``tests/oracles.py``.

Termination of branch and bound is guaranteed by bounding every variable
with the Papadimitriou small-solution bound (see :mod:`repro.ilp.bounds`):
if any solution exists, one exists within the bound, so searching the
bounded box is complete.  A work budget guards running time — both
branch-and-bound *nodes* and dual-simplex *pivots* are counted, so a
pathological bound-patch sequence cannot spin inside a single node —
and exceeding it raises :class:`SolverError` rather than returning a
wrong answer.

An :class:`ExactAssembledSystem` carries a live factorized basis across
calls and is therefore **single-owner state**, never shared between
processes: a batch worker (DESIGN.md section 7) lazily builds its own.
Cut rows learned before the twin was built are replayed through
``add_cut``, which extends the live factorization exactly like a cut
learned after it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from repro.errors import SolverError
from repro.ilp.bounds import papadimitriou_bound
from repro.ilp.model import (
    EQ,
    GE,
    LE,
    BoundPatch,
    LinearSystem,
    SolveResult,
    VarId,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Dual-simplex pivots allowed per branch-and-bound node (on average):
#: ``pivot_limit`` defaults to ``node_limit * _PIVOTS_PER_NODE``.
_PIVOTS_PER_NODE = 64

#: Consecutive degenerate pivots before the entering rule falls back from
#: largest-pivot tie-breaking to Bland's rule (which cannot cycle).
_BLAND_AFTER = 24


@dataclass
class ExactStats:
    """Work counters for the exact backend (shared across solves)."""

    #: Branch-and-bound nodes expanded.
    nodes: int = 0
    #: Dual-simplex pivots performed.
    pivots: int = 0
    #: LP re-solves served warm (basis carried over from a previous node).
    warm_solves: int = 0
    #: Basis refactorizations from scratch (cold starts + repairs).
    cold_restarts: int = 0


class _Budget:
    """Node and pivot budget; exhausting either raises :class:`SolverError`."""

    def __init__(self, node_limit: int, pivot_limit: int | None):
        self.node_limit = node_limit
        self.pivot_limit = (
            node_limit * _PIVOTS_PER_NODE if pivot_limit is None else pivot_limit
        )
        self.nodes = 0
        self.pivots = 0

    def spend_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SolverError(
                f"exact branch-and-bound exceeded {self.node_limit} nodes"
            )

    def spend_pivot(self) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise SolverError(
                f"exact branch-and-bound exceeded {self.pivot_limit} "
                "dual-simplex pivots"
            )


class _RevisedDualSimplex:
    """Bounded-variable revised dual simplex over Fractions.

    Columns ``[0, n)`` are the structural variables (cost 1 each — the
    solver minimizes their sum so feasible answers make small witness
    trees); column ``n + i`` is the slack of row ``i`` (cost 0).  Every
    row is the equality ``a.x + s_i = rhs_i``; senses, branching bounds
    and cut activation all live in the per-solve bound arrays.

    The basis inverse is kept explicitly (dense ``m x m`` Fractions) and
    updated in place by pivots; :meth:`append_row` extends a live
    factorization with the new slack basic, so learning a connectivity
    cut never discards the basis.  Any state the engine is left in is
    dual feasible, hence a valid warm start for *any* subsequent bound
    assignment — the invariant the branch-and-bound driver relies on.
    """

    def __init__(self, num_struct: int):
        self.n = num_struct
        self.rhs: list[Fraction] = []
        #: Structural coefficients per row and per column (both views).
        self.row_coeffs: list[dict[int, Fraction]] = []
        self.col_rows: list[dict[int, Fraction]] = [
            {} for _ in range(num_struct)
        ]
        self.basis: list[int] = []
        self.basis_pos: list[int] = []
        self.at_upper: list[bool] = []
        self.binv: list[list[Fraction]] = []
        #: Reduced costs per column.  A function of the basis only — bound
        #: patches never touch it — so it warm-starts along with ``binv``.
        self.d: list[Fraction] = []
        self._ready = False
        self._last_basic_values: list[Fraction] = []

    # -- shape -------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.rhs)

    @property
    def ncols(self) -> int:
        return self.n + self.m

    # -- rows --------------------------------------------------------------

    def append_row(self, coeffs: Mapping[int, Fraction], rhs: Fraction) -> None:
        """Append ``coeffs . x + s = rhs``; extends a live basis in place.

        ``B_new = [[B, 0], [a_B, 1]]`` (the new slack basic in the new
        row), so ``B_new^-1 = [[B^-1, 0], [-a_B B^-1, 1]]`` — the warm
        factorization survives cut learning.
        """
        row = {j: c for j, c in coeffs.items() if c}
        index = self.m
        self.row_coeffs.append(row)
        self.rhs.append(rhs)
        for j, c in row.items():
            self.col_rows[j][index] = c
        slack = self.n + index
        if self._ready:
            a_basic = [
                row.get(col, _ZERO) if col < self.n else _ZERO
                for col in self.basis
            ]
            new_row = [
                -sum(
                    a_basic[p] * self.binv[p][q] for p in range(index) if a_basic[p]
                )
                for q in range(index)
            ]
            new_row.append(_ONE)
            for binv_row in self.binv:
                binv_row.append(_ZERO)
            self.binv.append(new_row)
            self.basis_pos.append(index)
            self.at_upper.append(False)
            self.basis.append(slack)
            # The new slack is basic with cost 0, so ``y`` gains a zero
            # component and every existing reduced cost is unchanged.
            self.d.append(_ZERO)

    # -- basis lifecycle ---------------------------------------------------

    def reset(self) -> None:
        """Cold start: all-slack basis, structural columns at lower bound.

        Always dual feasible for the min-sum objective (reduced costs are
        the unit costs, all ``>= 0``, with every nonbasic at its lower
        bound).
        """
        m = self.m
        self.basis = [self.n + i for i in range(m)]
        self.binv = [
            [_ONE if p == q else _ZERO for q in range(m)] for p in range(m)
        ]
        self.basis_pos = [-1] * self.n + list(range(m))
        self.at_upper = [False] * self.ncols
        self.d = [_ONE] * self.n + [_ZERO] * m
        self._ready = True

    def _basic_values(
        self, lower: list[Fraction | None], upper: list[Fraction | None]
    ) -> list[Fraction]:
        """``x_B = B^-1 (rhs - N x_N)`` with nonbasics at their bound."""
        q = list(self.rhs)
        for j in range(self.ncols):
            if self.basis_pos[j] >= 0:
                continue
            value = upper[j] if self.at_upper[j] else lower[j]
            if value is None:  # pragma: no cover - statuses keep bounds finite
                raise SolverError("nonbasic variable without a finite bound")
            if not value:
                continue
            if j >= self.n:
                q[j - self.n] -= value
            else:
                for i, c in self.col_rows[j].items():
                    q[i] -= c * value
        nonzero = [i for i, value in enumerate(q) if value]
        return [
            sum(row[i] * q[i] for i in nonzero if row[i]) or _ZERO
            for row in self.binv
        ]

    def _tableau_column(self, entering: int) -> list[Fraction]:
        """``t = B^-1 A_entering`` — the entering variable's column."""
        m = self.m
        if entering >= self.n:
            i = entering - self.n
            return [self.binv[p][i] for p in range(m)]
        col = self.col_rows[entering]
        return [
            sum(self.binv[p][i] * c for i, c in col.items() if self.binv[p][i])
            or _ZERO
            for p in range(m)
        ]

    def _pivot(self, r: int, entering: int, t: list[Fraction]) -> None:
        """Replace the basic variable of row ``r`` by ``entering``."""
        m = self.m
        pivot_value = t[r]
        if pivot_value != 1:
            self.binv[r] = [value / pivot_value for value in self.binv[r]]
        pivot_row = self.binv[r]
        for p in range(m):
            if p == r or not t[p]:
                continue
            factor = t[p]
            other = self.binv[p]
            for q in range(m):
                if pivot_row[q]:
                    other[q] -= factor * pivot_row[q]
        leaving = self.basis[r]
        self.basis_pos[leaving] = -1
        self.basis[r] = entering
        self.basis_pos[entering] = r

    # -- solving -----------------------------------------------------------

    def _settle_statuses(
        self, lower: list[Fraction | None], upper: list[Fraction | None]
    ) -> bool:
        """Restore the dual-feasible parking of every nonbasic column.

        Bound patches can remove the bound a nonbasic sits on (cut
        toggles) or *unfix* a column that was pinned ``lower == upper``
        under the previous patches — a fixed column carries no dual sign
        condition, so its reduced cost may be arbitrary when it widens.
        Each nonbasic must end on a finite bound whose dual sign matches
        its reduced cost (``>= 0`` at lower, ``<= 0`` at upper); a bound
        flip achieves that for free.  When neither side works the basis
        is refactorized cold (rare) and ``False`` is returned so the
        caller books the solve as a cold restart.
        """
        for j in range(self.ncols):
            if self.basis_pos[j] >= 0:
                continue
            low, high = lower[j], upper[j]
            if low is not None and low == high:
                continue  # fixed: both sides finite, no sign condition
            reduced = self.d[j]
            if self.at_upper[j]:
                if high is None or reduced > 0:
                    if low is None or reduced < 0:
                        self.reset()
                        return False
                    self.at_upper[j] = False
            else:
                if low is None or reduced < 0:
                    if high is None or reduced > 0:
                        self.reset()
                        return False
                    self.at_upper[j] = True
        return True

    def solve(
        self,
        lower: list[Fraction | None],
        upper: list[Fraction | None],
        budget: _Budget,
        stats: ExactStats,
        warm: bool,
    ) -> str:
        """Dual simplex to optimality; ``"optimal"`` or ``"infeasible"``.

        Leaving row: smallest basic column index among bound violations.
        Entering: minimum dual ratio, ties broken by largest pivot
        magnitude; after ``_BLAND_AFTER`` consecutive dual-degenerate
        pivots the tie-break falls back to smallest column index (the
        dual Bland rule, which cannot cycle).  The pivot budget backstops
        termination — it raises rather than ever returning a wrong
        status.
        """
        if not warm or not self._ready or len(self.basis) != self.m:
            self.reset()
            stats.cold_restarts += 1
        elif self._settle_statuses(lower, upper):
            stats.warm_solves += 1
        else:  # dual-infeasible parking forced a repair refactorization
            stats.cold_restarts += 1
        x_basic = self._basic_values(lower, upper)
        fixed = [
            lower[j] is not None and upper[j] is not None and lower[j] == upper[j]
            for j in range(self.ncols)
        ]
        stalled = 0  # consecutive dual-degenerate pivots -> Bland fallback
        while True:
            leave_row = -1
            leave_col = self.ncols
            below = False
            for p in range(self.m):
                col = self.basis[p]
                value = x_basic[p]
                low, high = lower[col], upper[col]
                if low is not None and value < low:
                    if col < leave_col:
                        leave_row, leave_col, below = p, col, True
                elif high is not None and value > high:
                    if col < leave_col:
                        leave_row, leave_col, below = p, col, False
            if leave_row < 0:
                self._last_basic_values = x_basic
                return "optimal"
            budget.spend_pivot()
            stats.pivots += 1
            # Sparse pivot row: alpha_j = binv[r] . A_j for every column.
            rho = self.binv[leave_row]
            alpha: dict[int, Fraction] = {}
            for i, rho_i in enumerate(rho):
                if not rho_i:
                    continue
                alpha[self.n + i] = rho_i
                for j, c in self.row_coeffs[i].items():
                    value = alpha.get(j, _ZERO) + rho_i * c
                    if value:
                        alpha[j] = value
                    else:
                        alpha.pop(j, None)
            best_j = -1
            best_ratio: Fraction | None = None
            best_alpha = _ZERO
            bland = stalled >= _BLAND_AFTER
            for j, alpha_j in alpha.items():
                if self.basis_pos[j] >= 0 or fixed[j]:
                    continue
                if below:
                    # x_B[r] must increase: at-lower entering increases
                    # (needs alpha < 0), at-upper entering decreases
                    # (needs alpha > 0).
                    ok = (alpha_j < 0) if not self.at_upper[j] else (alpha_j > 0)
                else:
                    ok = (alpha_j > 0) if not self.at_upper[j] else (alpha_j < 0)
                if not ok:
                    continue
                ratio = abs(self.d[j]) / abs(alpha_j)
                if best_ratio is None or ratio < best_ratio:
                    better = True
                elif ratio > best_ratio:
                    better = False
                elif bland:
                    better = j < best_j
                else:
                    # Largest pivot magnitude among ties (then smallest
                    # index) keeps the factorization sparse and stable.
                    magnitude = abs(alpha_j)
                    better = magnitude > best_alpha or (
                        magnitude == best_alpha and j < best_j
                    )
                if better:
                    best_ratio = ratio
                    best_j = j
                    best_alpha = abs(alpha_j)
            if best_j < 0:
                return "infeasible"
            # Incremental primal update: the entering variable moves by
            # delta off its bound, driving the leaving basic exactly onto
            # the bound it violated; x_B shifts along the tableau column.
            t = self._tableau_column(best_j)
            target = lower[leave_col] if below else upper[leave_col]
            delta = (x_basic[leave_row] - target) / t[leave_row]
            entering_value = (
                upper[best_j] if self.at_upper[best_j] else lower[best_j]
            )
            if delta:
                for p in range(self.m):
                    if t[p]:
                        x_basic[p] -= delta * t[p]
            x_basic[leave_row] = entering_value + delta
            # Dual update: theta is the dual step length; the leaving
            # column picks up -theta, every other nonbasic shifts along
            # the pivot row.  Basic columns stay at zero by construction.
            # A zero theta is a dual-degenerate pivot — only those can
            # participate in a cycle, so they feed the Bland fallback.
            theta = self.d[best_j] / alpha[best_j]
            stalled = 0 if theta else stalled + 1
            if theta:
                for j, alpha_j in alpha.items():
                    if self.basis_pos[j] < 0:
                        self.d[j] -= theta * alpha_j
            self.d[best_j] = _ZERO
            self._pivot(leave_row, best_j, t)
            self.d[leave_col] = -theta
            # The leaving variable rests on the bound it violated.
            self.at_upper[leave_col] = not below

    def solution(
        self, lower: list[Fraction | None], upper: list[Fraction | None]
    ) -> list[Fraction]:
        """Structural variable values at the last optimal basis."""
        values = []
        for j in range(self.n):
            pos = self.basis_pos[j]
            if pos >= 0:
                values.append(self._last_basic_values[pos])
            else:
                bound = upper[j] if self.at_upper[j] else lower[j]
                values.append(bound if bound is not None else _ZERO)
        return values


class ExactAssembledSystem:
    """A certified twin of :class:`repro.ilp.assembled.AssembledSystem`.

    Assembled once from a :class:`LinearSystem`; every solve supplies
    variable-bound patches plus the set of active cut indices, exactly
    like the float backend, so :func:`repro.ilp.condsys._solve_leaf_assembled`
    can hand either backend the same patch lists.  The revised-simplex
    basis persists across calls: consecutive leaf solves of a support
    search warm-start each other, and within one call every
    branch-and-bound child warm-starts from its parent's basis.
    """

    def __init__(self, system: LinearSystem):
        self._system = system
        self._n = system.num_vars
        self._engine = _RevisedDualSimplex(self._n)
        self._senses: list[str] = []
        #: Base rows no integer point can satisfy (gcd test), with their
        #: indices — consulted per solve so a *deactivated* row never
        #: refutes a system it is not part of.
        self._gcd_rows: list[tuple[int, str]] = []
        for index, row in enumerate(system.rows):
            merged: dict[int, Fraction] = {}
            for var, coeff in row.coeffs:
                j = system.index_of(var)
                merged[j] = merged.get(j, _ZERO) + Fraction(coeff)
            self._engine.append_row(merged, Fraction(row.rhs))
            self._senses.append(row.sense)
            if row.sense == EQ and row.coeffs:
                divisor = 0
                for _, coeff in row.coeffs:
                    divisor = gcd(divisor, abs(coeff))
                if divisor > 1 and row.rhs % divisor != 0:
                    self._gcd_rows.append((index, f"gcd cut on row {row.pretty()}"))
        self._num_base_rows = system.num_rows
        self._cut_rhs: list[int] = []
        self._max_cut_abs = 1
        self._base_max_abs = system.max_abs_value()
        self.stats = ExactStats()

    # -- shape -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._n

    @property
    def num_cuts(self) -> int:
        return len(self._cut_rhs)

    @property
    def system(self) -> LinearSystem:
        return self._system

    # -- cut pool ----------------------------------------------------------

    def add_cut(self, coeffs: Mapping[VarId, int], rhs: int, label: str = "") -> int:
        """Append a ``sum(coeffs) >= rhs`` row; returns its pool index.

        The row is appended to the live factorization (new slack basic),
        so a warm basis survives; activation is controlled per solve by
        the ``active`` argument, which widens or narrows the slack's
        bounds — never a matrix change.
        """
        merged: dict[int, Fraction] = {}
        for var, coeff in coeffs.items():
            j = self._system.index_of(var)
            merged[j] = merged.get(j, _ZERO) + Fraction(coeff)
            self._max_cut_abs = max(self._max_cut_abs, abs(int(coeff)))
        self._max_cut_abs = max(self._max_cut_abs, abs(int(rhs)))
        self._engine.append_row(merged, Fraction(rhs))
        self._senses.append(GE)
        self._cut_rhs.append(int(rhs))
        return len(self._cut_rhs) - 1

    # -- bounds ------------------------------------------------------------

    def _structural_bounds(
        self, patches: Mapping[VarId, BoundPatch]
    ) -> tuple[list[Fraction], list[Fraction], int]:
        """Patched structural boxes; unbounded columns get the
        Papadimitriou bound so branch and bound is complete."""
        lower = [_ZERO] * self._n
        upper: list[Fraction | None] = [None] * self._n
        for var in self._system.variables:
            bound = self._system.upper(var)
            if bound is not None:
                upper[self._system.index_of(var)] = Fraction(bound)
        patch_lowers = 0
        max_patch = 1
        for var, (low, high) in patches.items():
            j = self._system.index_of(var)
            if low is not None:
                value = Fraction(low)
                if value > lower[j]:
                    lower[j] = value
                if low > 0:
                    patch_lowers += 1
                max_patch = max(max_patch, abs(low))
            if high is not None:
                value = Fraction(high)
                if upper[j] is None or value < upper[j]:
                    upper[j] = value
                max_patch = max(max_patch, abs(high))
        rows_effective = self._num_base_rows + self.num_cuts + patch_lowers
        max_abs = max(self._base_max_abs, self._max_cut_abs, max_patch)
        default = Fraction(
            papadimitriou_bound(self._n, rows_effective, max_abs)
        )
        filled = [default if value is None else value for value in upper]
        return lower, filled, patch_lowers

    def _column_bounds(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        inactive_rows: frozenset[int] = frozenset(),
    ) -> tuple[list[Fraction | None], list[Fraction | None]]:
        """Full bound arrays (structural + slacks) for one solve.

        Active rows encode their sense in the slack box; a deactivated
        row's slack — a pool cut not in ``active``, or a toggleable base
        row named by ``inactive_rows`` — gets the box implied by the
        structural boxes, which constrains nothing but keeps every bound
        finite.  Either way the factorization is untouched: (de)activation
        is purely a slack-bound change.
        """
        struct_lower, struct_upper, _ = self._structural_bounds(patches)
        lower: list[Fraction | None] = list(struct_lower)
        upper: list[Fraction | None] = list(struct_upper)
        engine = self._engine
        for i, sense in enumerate(self._senses):
            cut_index = i - self._num_base_rows
            deactivated = (
                cut_index not in active if cut_index >= 0 else i in inactive_rows
            )
            if deactivated:
                # Implied activity range of the row over the current box.
                low_activity = _ZERO
                high_activity = _ZERO
                for j, c in engine.row_coeffs[i].items():
                    if c > 0:
                        low_activity += c * struct_lower[j]
                        high_activity += c * struct_upper[j]
                    else:
                        low_activity += c * struct_upper[j]
                        high_activity += c * struct_lower[j]
                rhs = engine.rhs[i]
                lower.append(rhs - high_activity)
                upper.append(rhs - low_activity)
            elif sense == LE:
                lower.append(_ZERO)
                upper.append(None)
            elif sense == GE:
                lower.append(None)
                upper.append(_ZERO)
            else:
                lower.append(_ZERO)
                upper.append(_ZERO)
        return lower, upper

    # -- solving -----------------------------------------------------------

    def solve_int(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int] | frozenset[int] | None = None,
        node_limit: int = 5000,
        pivot_limit: int | None = None,
        warm: bool = True,
        inactive_rows: frozenset[int] = frozenset(),
    ) -> SolveResult:
        """Certified integer solve under bound patches and active cuts.

        ``inactive_rows`` deactivates the named base rows for this solve
        (slack-box relaxation on the live factorization — the toggleable
        constraint rows of DESIGN.md section 6).  Returns the first
        integral solution of the depth-first search — small in practice
        (the LP objective is the sum of all variables) but not certified
        minimal: alternate optimal LP vertices can steer different
        branchings.  ``warm=False`` refactorizes the basis at every
        branch-and-bound node (the cold reference path); the default
        carries the parent's basis into each child and across calls.
        """
        active = set(active or ())
        if self._n == 0:
            for i, row in enumerate(self._system.rows):
                if i not in inactive_rows and not row.evaluate({}):
                    return SolveResult("infeasible", message="constant row violated")
            return SolveResult("feasible", {})
        for gcd_row, message in self._gcd_rows:
            if gcd_row not in inactive_rows:
                return SolveResult("infeasible", message=message)

        base_lower, base_upper = self._column_bounds(patches, active, inactive_rows)
        # Crossing boxes are infeasible outright — the dual simplex only
        # polices *basic* variables against their bounds, so a nonbasic
        # parked on one side of an empty box would go unnoticed.
        for low, high in zip(base_lower, base_upper):
            if low is not None and high is not None and low > high:
                return SolveResult("infeasible", message="empty variable box")
        budget = _Budget(node_limit, pivot_limit)
        engine = self._engine
        stats = self.stats

        stack: list[tuple[tuple[int, bool, Fraction], ...]] = [()]
        while stack:
            extra = stack.pop()
            budget.spend_node()
            stats.nodes += 1
            lower = list(base_lower)
            upper = list(base_upper)
            empty = False
            for j, is_upper, bound in extra:
                if is_upper:
                    if upper[j] is None or bound < upper[j]:
                        upper[j] = bound
                else:
                    if lower[j] is None or bound > lower[j]:
                        lower[j] = bound
                if (
                    lower[j] is not None
                    and upper[j] is not None
                    and lower[j] > upper[j]
                ):
                    empty = True
                    break
            if empty:
                continue
            status = engine.solve(lower, upper, budget, stats, warm)
            if status == "infeasible":
                continue
            solution = engine.solution(lower, upper)
            fractional = next(
                (
                    index
                    for index, value in enumerate(solution)
                    if value.denominator != 1
                ),
                None,
            )
            if fractional is None:
                values = {
                    var: int(solution[self._system.index_of(var)])
                    for var in self._system.variables
                }
                return SolveResult("feasible", values)
            value = solution[fractional]
            stack.append(extra + ((fractional, False, Fraction(ceil(value))),))
            stack.append(extra + ((fractional, True, Fraction(floor(value))),))
        return SolveResult("infeasible", message="branch and bound exhausted")


def solve_exact(
    system: LinearSystem,
    node_limit: int = 5000,
    warm: bool = True,
    pivot_limit: int | None = None,
    stats: ExactStats | None = None,
) -> SolveResult:
    """Certified feasibility check of the integer system.

    The LP objective is the sum of all variables, so the first integral
    solution the search finds is small (small solutions make small witness
    trees).  Every variable without an explicit upper bound receives the
    Papadimitriou bound, which makes branch and bound complete; the node
    and pivot budgets guard time and raise :class:`SolverError` when
    exhausted.  ``warm=False`` selects the cold per-node refactorization
    path kept for differential testing.
    """
    assembled = ExactAssembledSystem(system)
    if stats is not None:
        assembled.stats = stats
    return assembled.solve_int(
        {}, node_limit=node_limit, pivot_limit=pivot_limit, warm=warm
    )
