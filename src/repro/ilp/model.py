"""Solver-independent integer linear systems.

Variables are arbitrary hashable identifiers (the encoders use tuples such
as ``("ext", "teacher")`` or ``("occ", 1, "subject", "teach")``), all
implicitly integer and nonnegative — the paper's systems only ever count
nodes and values. Rows are linear constraints with integer coefficients.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

#: Variable identifiers are arbitrary hashables.
VarId = Hashable

#: Row senses.
LE, GE, EQ = "<=", ">=", "=="

#: Variable-bound patch ``(lower, upper)``; ``None`` leaves that side
#: untouched.  The shared currency of the incremental backends: both
#: :class:`repro.ilp.assembled.AssembledSystem` and
#: :class:`repro.ilp.exact.ExactAssembledSystem` take the same patch maps.
BoundPatch = tuple[int | None, int | None]


@dataclass(frozen=True)
class Row:
    """One linear constraint ``sum(coeffs[v] * v) sense rhs``."""

    coeffs: tuple[tuple[VarId, int], ...]
    sense: str
    rhs: int
    label: str = ""

    def evaluate(self, values: Mapping[VarId, int]) -> bool:
        """Does an assignment satisfy this row? (Missing variables count 0.)"""
        total = sum(coeff * values.get(var, 0) for var, coeff in self.coeffs)
        if self.sense == LE:
            return total <= self.rhs
        if self.sense == GE:
            return total >= self.rhs
        return total == self.rhs

    def pretty(self) -> str:
        """Human-readable rendering for diagnostics."""
        terms = " + ".join(
            (f"{coeff}*{var}" if coeff != 1 else f"{var}") for var, coeff in self.coeffs
        )
        suffix = f"   [{self.label}]" if self.label else ""
        return f"{terms or '0'} {self.sense} {self.rhs}{suffix}"


class LinearSystem:
    """A growing system of integer linear constraints.

    All variables are integer and bounded below by 0; optional upper bounds
    may be attached per variable. The system is deliberately dumb — it only
    stores rows; solving lives in the backends.

    ``add_eq``/``add_le``/``add_ge`` return the new row's index — stable for
    the system's lifetime, and the identifier under which toggleable rows
    are (de)activated on the assembled backends.

    >>> sys = LinearSystem()
    >>> sys.add_eq({"x": 1, "y": -1}, 0)
    0
    >>> sys.add_ge({"x": 1}, 2)
    1
    >>> sys.num_vars, sys.num_rows
    (2, 2)
    """

    def __init__(self) -> None:
        self._index: dict[VarId, int] = {}
        self._order: list[VarId] = []
        self._rows: list[Row] = []
        self._upper: dict[VarId, int] = {}
        #: Assembled CSR arrays of this system's leading rows, shared
        #: read-only with every plain :meth:`copy` (rows are append-only
        #: and column indices never move, so the arrays stay exact);
        #: :func:`repro.ilp.assembled.assemble_arrays` assembles only
        #: the rows past it.  ``None`` for systems nobody pre-assembled.
        self.row_prefix = None

    # -- variables ---------------------------------------------------------

    def ensure_var(self, var: VarId) -> VarId:
        """Register a variable (idempotent) and return its identifier."""
        if var not in self._index:
            self._index[var] = len(self._order)
            self._order.append(var)
        return var

    @property
    def variables(self) -> tuple[VarId, ...]:
        """All registered variables in registration order."""
        return tuple(self._order)

    @property
    def num_vars(self) -> int:
        return len(self._order)

    def index_of(self, var: VarId) -> int:
        """Dense column index of a variable (for matrix assembly)."""
        return self._index[var]

    def set_upper(self, var: VarId, bound: int) -> None:
        """Attach an upper bound to a variable (tightening only)."""
        self.ensure_var(var)
        current = self._upper.get(var)
        self._upper[var] = bound if current is None else min(current, bound)

    def upper(self, var: VarId) -> int | None:
        """The upper bound of a variable, if any."""
        return self._upper.get(var)

    def upper_bounds(self) -> Mapping[VarId, int]:
        """Every attached upper bound (a read-only view: do not mutate)."""
        return self._upper

    # -- rows ---------------------------------------------------------------

    def _add(self, coeffs: Mapping[VarId, int], sense: str, rhs: int, label: str) -> int:
        cleaned = tuple(
            (self.ensure_var(var), int(coeff))
            for var, coeff in coeffs.items()
            if coeff != 0
        )
        self._rows.append(Row(cleaned, sense, int(rhs), label))
        return len(self._rows) - 1

    def add_eq(self, coeffs: Mapping[VarId, int], rhs: int, label: str = "") -> int:
        """Add ``sum(coeffs) == rhs``; returns the row's stable index."""
        return self._add(coeffs, EQ, rhs, label)

    def add_le(self, coeffs: Mapping[VarId, int], rhs: int, label: str = "") -> int:
        """Add ``sum(coeffs) <= rhs``; returns the row's stable index."""
        return self._add(coeffs, LE, rhs, label)

    def add_ge(self, coeffs: Mapping[VarId, int], rhs: int, label: str = "") -> int:
        """Add ``sum(coeffs) >= rhs``; returns the row's stable index."""
        return self._add(coeffs, GE, rhs, label)

    @property
    def rows(self) -> tuple[Row, ...]:
        return tuple(self._rows)

    def row(self, index: int) -> Row:
        """One row by its stable index (no copy of the row list)."""
        return self._rows[index]

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    # -- utilities ----------------------------------------------------------

    def copy(self, drop_rows: "frozenset[int] | set[int]" = frozenset()) -> "LinearSystem":
        """Independent copy (rows are immutable and shared).

        ``drop_rows`` omits the rows with those indices — the materialized
        twin of deactivating toggleable rows on an assembled system.  All
        variables stay registered either way, so column indices are stable.
        A copy keeps :attr:`row_prefix` unless it drops rows (row indices
        then shift under the prefix).
        """
        clone = LinearSystem()
        clone._index = dict(self._index)
        clone._order = list(self._order)
        if drop_rows:
            clone._rows = [
                row for i, row in enumerate(self._rows) if i not in drop_rows
            ]
        else:
            clone._rows = list(self._rows)
            clone.row_prefix = self.row_prefix
        clone._upper = dict(self._upper)
        return clone

    def check(
        self,
        values: Mapping[VarId, int],
        skip_rows: "frozenset[int] | set[int]" = frozenset(),
    ) -> list[Row]:
        """Rows violated by an assignment (empty list = satisfied).

        Also enforces nonnegativity and upper bounds.  ``skip_rows`` are
        exempt from the check (deactivated toggleable rows).
        """
        violated = [
            row
            for i, row in enumerate(self._rows)
            if i not in skip_rows and not row.evaluate(values)
        ]
        for var in self._order:
            value = values.get(var, 0)
            if value < 0:
                violated.append(Row(((var, 1),), GE, 0, f"{var} >= 0"))
            bound = self._upper.get(var)
            if bound is not None and value > bound:
                violated.append(Row(((var, 1),), LE, bound, f"{var} <= {bound}"))
        return violated

    def max_abs_value(self) -> int:
        """Largest absolute coefficient or right-hand side (>= 1).

        Input to the Papadimitriou small-solution bound.
        """
        largest = 1
        for row in self._rows:
            largest = max(largest, abs(row.rhs))
            for _, coeff in row.coeffs:
                largest = max(largest, abs(coeff))
        return largest

    def pretty(self) -> str:
        """Multi-line rendering of the whole system."""
        return "\n".join(row.pretty() for row in self._rows)


@dataclass
class SolveResult:
    """Outcome of a solve call.

    ``status`` is ``"feasible"``, ``"infeasible"`` or ``"error"``; a
    feasible result carries integer values for every variable (defaulting
    to 0 for variables a backend eliminated).
    """

    status: str
    values: dict[VarId, int] = field(default_factory=dict)
    message: str = ""

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def infeasible(self) -> bool:
        return self.status == "infeasible"
