"""Assemble-once linear systems with patchable variable bounds.

The support search of :mod:`repro.ilp.condsys` explores many variants of
*one* base system ``Psi(D, Sigma)``: every per-node delta — ``support:tau``
(``ext >= 1``), ``absent:tau`` (``ext == 0``) and the ``attr-total`` rows —
is a *variable-bound* change, never a new matrix row.  Rebuilding a fresh
matrix per node (the pre-incremental design) therefore wasted almost all of
its time re-densifying identical coefficients and re-validating them through
a one-shot solver's per-call machinery.

:class:`AssembledSystem` is the one floating-point solver of the package.
It assembles the base matrix exactly once (row-wise compressed
``indptr``/``indices``/``data`` arrays, so there is no dense size cap) and
serves every subsequent solve by patching the variable-bound arrays: a
persistent HiGHS instance holds the model; each solve is a
``changeColsBounds`` + ``run`` round-trip, and connectivity cuts learned
during the search are appended with ``addRow`` and switched on/off per
solve through their row bounds.

Integer solves run **LP first**.  The LP-relaxation instance decides most
of them: an infeasible relaxation refutes every integer point, and a
rounded vertex that passes the exact check is an integer solution.  Only
a fractional (or check-failing) vertex runs the MIP, on a second instance
built on first such use, which replays the cut pool at build time.  Both
minimise ``sum(x)``, so an integral LP optimum is also a MIP optimum, but
it may be a different optimal vertex than the MIP would pick: witnesses
are equally valid, not necessarily the same.  ``lp_solves`` and
``mip_solves`` count the HiGHS runs of each instance.  HiGHS is the
binding scipy vendors; :func:`_load_highs_core` loads that extension
straight from its file.  That file is all this package takes from scipy:
no scipy Python package is imported on any path, and the exact re-check
of a rounded point is a numpy-only row residual
(:meth:`AssembledSystem._vector_check`).

**Toggleable rows** (DESIGN.md section 6) extend the same discipline to the
*base* rows: a solve may name ``inactive_rows`` — base-row indices whose
bounds are relaxed to ``(-inf, inf)`` for that solve, exactly the mechanism
that switches pooled connectivity cuts on and off.  The encoders register
each ``C_Sigma`` row (and each negated-constraint row) under its stable row
index, so diagnostics can probe any constraint subset by bound flips on the
one assembled system instead of re-encoding it per subset.

An :class:`AssembledSystem` — like the persistent HiGHS instances it
drives — is **single-owner state**: it is never shared across processes
or threads.  The parallel executor (DESIGN.md section 7) gives every
worker its own instance (each fork worker assembles its own from the
pickled base system; ``SolveWorkspace.clone()`` is the same ownership
rule for same-process callers) and moves only cut *records* between
owners under the pool's dedup/merge policy.

>>> from repro.ilp.model import LinearSystem
>>> sys = LinearSystem()
>>> sys.add_ge({"x": 1}, 1, label="always")
0
>>> blocking = sys.add_le({"x": 1}, 0, label="toggleable")   # forces x <= 0
>>> assembled = AssembledSystem(sys)
>>> assembled.solve_int({}).status                  # both rows: 1 <= x <= 0
'infeasible'
>>> result = assembled.solve_int({}, inactive_rows=frozenset({blocking}))
>>> (result.status, result.values["x"], assembled.assemblies)
('feasible', 1, 1)
>>> assembled.solve_counts          # (lp_solves, mip_solves): LP decided both
(2, 0)

Exactness is preserved by the same discipline as the one-shot backend: every
floating-point solution is rounded and re-checked exactly against the
integer rows (base, cuts, and patched bounds) by one helper,
:meth:`AssembledSystem._accept`; a failed check of the MIP's point degrades
to ``"error"`` so callers fall back to the rational simplex, never to a
wrong answer.  LP answers are only trusted when definitely infeasible, or
when the rounded vertex passes the exact check.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Mapping

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import (
    EQ,
    GE,
    LE,
    BoundPatch,
    LinearSystem,
    Row,
    SolveResult,
    VarId,
)

_HIGHS_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """The HiGHS binding vendored by scipy, loaded without its parent package.

    Importing the binding the usual way first executes the ``__init__`` of
    scipy's whole optimization package, which costs more than every solve
    of a typical CLI call.  Instead, reuse the module if another import
    already loaded it; else load the extension file from the installed
    scipy with the extension loader and register it under its own name, so
    a later import of the full package shares this one copy.
    """
    module = sys.modules.get(_HIGHS_CORE)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_HIGHS_CORE, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_HIGHS_CORE, loader)
                )
                loader.exec_module(module)
                sys.modules[_HIGHS_CORE] = module
                return module
    raise ImportError(
        f"the float solver needs scipy>=1.15, whose package ships the HiGHS "
        f"binding {_HIGHS_CORE}; no installed scipy provides it"
    )


_highs = _load_highs_core()


def assemble_arrays(system: LinearSystem):
    """Sparse CSR triplets and bound arrays for a :class:`LinearSystem`.

    Returns ``(indptr, indices, data, row_lower, row_upper, var_lower,
    var_upper)``.  Duplicate variable mentions within a row are merged, like
    the dense assembly's ``+=`` did.
    """
    num_rows = system.num_rows
    indptr = np.zeros(num_rows + 1, dtype=np.int32)
    indices: list[int] = []
    data: list[float] = []
    row_lower = np.full(num_rows, -np.inf)
    row_upper = np.full(num_rows, np.inf)
    for i, row in enumerate(system.rows):
        merged: dict[int, int] = {}
        for var, coeff in row.coeffs:
            j = system.index_of(var)
            merged[j] = merged.get(j, 0) + coeff
        for j in sorted(merged):
            indices.append(j)
            data.append(float(merged[j]))
        indptr[i + 1] = len(indices)
        if row.sense == LE:
            row_upper[i] = row.rhs
        elif row.sense == GE:
            row_lower[i] = row.rhs
        elif row.sense == EQ:
            row_lower[i] = row.rhs
            row_upper[i] = row.rhs
        else:  # pragma: no cover - defensive
            raise SolverError(f"unknown row sense {row.sense!r}")
    var_lower = np.zeros(system.num_vars)
    var_upper = np.full(system.num_vars, np.inf)
    for var in system.variables:
        bound = system.upper(var)
        if bound is not None:
            var_upper[system.index_of(var)] = float(bound)
    return (
        indptr,
        np.array(indices, dtype=np.int32),
        np.array(data, dtype=np.float64),
        row_lower,
        row_upper,
        var_lower,
        var_upper,
    )


class _HighsInstance:
    """One persistent HiGHS model: pass once, then patch bounds and re-run."""

    def __init__(self, assembled: "AssembledSystem", integer: bool):
        self._n = assembled.num_vars
        h = _highs._Highs()
        for name, value in (
            ("output_flag", False),
            ("log_to_console", False),
            ("threads", 1),
        ):
            try:
                h.setOptionValue(name, value)
            except Exception:  # pragma: no cover - option-name drift
                pass
        lp = _highs.HighsLp()
        lp.num_col_ = assembled.num_vars
        lp.num_row_ = assembled.num_base_rows
        lp.col_cost_ = np.ones(assembled.num_vars)
        lp.col_lower_ = self._finite(assembled.base_var_lower)
        lp.col_upper_ = self._finite(assembled.base_var_upper)
        lp.row_lower_ = self._finite(assembled.base_row_lower)
        lp.row_upper_ = self._finite(assembled.base_row_upper)
        matrix = _highs.HighsSparseMatrix()
        matrix.format_ = _highs.MatrixFormat.kRowwise
        matrix.num_col_ = assembled.num_vars
        matrix.num_row_ = assembled.num_base_rows
        matrix.start_ = assembled.indptr
        matrix.index_ = assembled.indices
        matrix.value_ = assembled.data
        lp.a_matrix_ = matrix
        if integer:
            lp.integrality_ = np.array(
                [_highs.HighsVarType.kInteger] * assembled.num_vars
            )
        if h.passModel(lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected the assembled model")
        self._h = h
        self._all_cols = np.arange(assembled.num_vars, dtype=np.int32)
        self._num_rows = assembled.num_base_rows

    @staticmethod
    def _finite(array: np.ndarray) -> np.ndarray:
        """Replace +/-inf with HiGHS's own infinity sentinel."""
        out = np.asarray(array, dtype=np.float64).copy()
        out[out == np.inf] = _highs.kHighsInf
        out[out == -np.inf] = -_highs.kHighsInf
        return out

    def add_row(self, coeffs: Mapping[int, float], lower: float) -> None:
        """Append a ``>= lower`` row (a connectivity cut)."""
        cols = np.array(sorted(coeffs), dtype=np.int32)
        vals = np.array([float(coeffs[j]) for j in sorted(coeffs)])
        status = self._h.addRow(lower, _highs.kHighsInf, len(cols), cols, vals)
        if status == _highs.HighsStatus.kError:  # pragma: no cover - defensive
            raise SolverError("HiGHS rejected an appended cut row")
        self._num_rows += 1

    def set_row_bounds(self, row: int, lower: float, upper: float) -> None:
        """(De)activate a row in place by moving its bounds.

        Deactivation relaxes both sides to infinity; reactivation restores
        the assembled bounds — never a matrix change.
        """
        self._h.changeRowBounds(
            row,
            lower if lower != -np.inf else -_highs.kHighsInf,
            upper if upper != np.inf else _highs.kHighsInf,
        )

    def solve(
        self, var_lower: np.ndarray, var_upper: np.ndarray
    ) -> tuple[str, np.ndarray | None]:
        """Re-solve under patched variable bounds.

        Returns ``("optimal", x)``, ``("infeasible", None)`` or
        ``("unknown", None)`` — anything numerically doubtful is "unknown".
        """
        h = self._h
        h.changeColsBounds(
            self._n, self._all_cols, self._finite(var_lower), self._finite(var_upper)
        )
        run = h.run()
        status = h.getModelStatus()
        if (
            run == _highs.HighsStatus.kError
            or status == _highs.HighsModelStatus.kSolveError
        ):
            # The vendored HiGHS presolve occasionally fails on tiny
            # integer-infeasible models (3a + 2b + 3c = 1) that it decides
            # fine without presolve.  Retry once with presolve off; the
            # instance is persistent, so restore the previous setting.
            _, previous = h.getOptionValue("presolve")
            h.setOptionValue("presolve", "off")
            try:
                run = h.run()
                status = h.getModelStatus()
            finally:
                h.setOptionValue("presolve", previous)
            if run == _highs.HighsStatus.kError:
                return "unknown", None
        if status == _highs.HighsModelStatus.kOptimal:
            return "optimal", np.asarray(h.getSolution().col_value)
        if status == _highs.HighsModelStatus.kInfeasible:
            return "infeasible", None
        return "unknown", None


class AssembledSystem:
    """A base system assembled once, solved many times under bound patches.

    The matrix never changes except by *appending* cut rows; each solve
    supplies per-variable bound patches and the set of active cut indices.
    Cut rows stay in the model permanently and are deactivated by relaxing
    their lower bound to ``-inf``, so activation is O(pool) bound flips,
    never a re-assembly.
    """

    def __init__(self, system: LinearSystem):
        self._system = system
        (
            self.indptr,
            self.indices,
            self.data,
            self.base_row_lower,
            self.base_row_upper,
            self.base_var_lower,
            self.base_var_upper,
        ) = assemble_arrays(system)
        self.assemblies = 1
        #: HiGHS runs of the LP-relaxation engine and of the MIP engine.
        self.lp_solves = 0
        self.mip_solves = 0
        self._cut_rows: list[Row] = []
        self._cut_coeffs: list[dict[int, float]] = []
        self._int_engine: _HighsInstance | None = None
        self._lp_engine: _HighsInstance | None = None
        self._engine_cut_state: dict[int, list[bool]] = {}
        #: Base rows currently deactivated, per engine (0=int, 1=lp).
        self._engine_inactive_rows: dict[int, set[int]] = {0: set(), 1: set()}
        #: Row index of every stored nonzero, for the numpy row residual.
        self._row_of_nz = np.repeat(
            np.arange(self.num_base_rows, dtype=np.int32), np.diff(self.indptr)
        )
        self._max_abs_coeff = float(np.max(np.abs(self.data))) if self.data.size else 1.0

    # -- shape ---------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._system.num_vars

    @property
    def num_base_rows(self) -> int:
        return len(self.base_row_lower)

    @property
    def num_cuts(self) -> int:
        return len(self._cut_rows)

    @property
    def system(self) -> LinearSystem:
        """The underlying base system (shared, not copied)."""
        return self._system

    # -- cut pool ------------------------------------------------------------

    def add_cut(self, coeffs: Mapping[VarId, int], rhs: int, label: str = "") -> int:
        """Append a ``sum(coeffs) >= rhs`` row; returns its pool index."""
        row = Row(tuple(coeffs.items()), GE, int(rhs), label)
        by_index: dict[int, float] = {}
        for var, coeff in coeffs.items():
            j = self._system.index_of(var)
            by_index[j] = by_index.get(j, 0.0) + float(coeff)
        self._cut_rows.append(row)
        self._cut_coeffs.append(by_index)
        for engine_id, engine in (
            (0, self._int_engine),
            (1, self._lp_engine),
        ):
            if engine is not None:
                engine.add_row(by_index, float(rhs))
                self._engine_cut_state[engine_id].append(True)
        return len(self._cut_rows) - 1

    def cut_row(self, index: int) -> Row:
        return self._cut_rows[index]

    # -- solving -------------------------------------------------------------

    def _patched_bounds(
        self, patches: Mapping[VarId, BoundPatch]
    ) -> tuple[np.ndarray, np.ndarray]:
        lower = self.base_var_lower.copy()
        upper = self.base_var_upper.copy()
        index_of = self._system.index_of
        for var, (lo, hi) in patches.items():
            j = index_of(var)
            if lo is not None and lo > lower[j]:
                lower[j] = float(lo)
            if hi is not None and hi < upper[j]:
                upper[j] = float(hi)
        return lower, upper

    def _engine(self, integer: bool) -> _HighsInstance:
        if integer:
            if self._int_engine is None:
                self._int_engine = _HighsInstance(self, integer=True)
                self._engine_cut_state[0] = [True] * self.num_cuts
                self._engine_inactive_rows[0] = set()
                for i, coeffs in enumerate(self._cut_coeffs):
                    self._int_engine.add_row(coeffs, float(self._cut_rows[i].rhs))
            return self._int_engine
        if self._lp_engine is None:
            self._lp_engine = _HighsInstance(self, integer=False)
            self._engine_cut_state[1] = [True] * self.num_cuts
            self._engine_inactive_rows[1] = set()
            for i, coeffs in enumerate(self._cut_coeffs):
                self._lp_engine.add_row(coeffs, float(self._cut_rows[i].rhs))
        return self._lp_engine

    def _apply_cut_activation(self, integer: bool, active: frozenset[int] | set[int]) -> None:
        engine = self._engine(integer)
        state = self._engine_cut_state[0 if integer else 1]
        for i in range(self.num_cuts):
            want = i in active
            if state[i] != want:
                engine.set_row_bounds(
                    self.num_base_rows + i,
                    float(self._cut_rows[i].rhs) if want else -np.inf,
                    np.inf,
                )
                state[i] = want

    def _apply_row_activation(
        self, integer: bool, inactive: frozenset[int] | set[int]
    ) -> None:
        """Sync the engine's base-row bounds with the requested toggle set.

        Deactivated rows get ``(-inf, inf)`` bounds (constrain nothing);
        reactivated rows get their assembled bounds back.  Only the
        difference against the engine's current state is patched, so a
        sequence of solves over similar subsets costs O(changes) flips.
        """
        engine = self._engine(integer)
        state = self._engine_inactive_rows[0 if integer else 1]
        for i in state - set(inactive):
            engine.set_row_bounds(
                i, float(self.base_row_lower[i]), float(self.base_row_upper[i])
            )
        for i in set(inactive) - state:
            engine.set_row_bounds(i, -np.inf, np.inf)
        self._engine_inactive_rows[0 if integer else 1] = set(inactive)

    def _solve_raw(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        integer: bool,
        inactive_rows: frozenset[int],
    ) -> tuple[str, np.ndarray | None, tuple[np.ndarray, np.ndarray]]:
        bounds = self._patched_bounds(patches)
        lower, upper = bounds
        if np.any(lower > upper):
            return "infeasible", None, bounds
        self._apply_cut_activation(integer, active)
        self._apply_row_activation(integer, inactive_rows)
        if integer:
            self.mip_solves += 1
        else:
            self.lp_solves += 1
        status, x = self._engine(integer).solve(lower, upper)
        return status, x, bounds

    @property
    def solve_counts(self) -> tuple[int, int]:
        """``(lp_solves, mip_solves)`` so far, for callers booking deltas."""
        return self.lp_solves, self.mip_solves

    def _values_from(self, x: np.ndarray) -> dict[VarId, int]:
        # Variables are registered in column order, so a single rint +
        # tolist + zip replaces a per-variable index_of/round loop.
        ints = np.rint(np.asarray(x)).astype(np.int64).tolist()
        return dict(zip(self._system.variables, ints))

    def _vector_check(
        self,
        x: np.ndarray,
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        inactive_rows: frozenset[int],
        bounds: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> bool | None:
        """Exact feasibility of a rounded integer point, vectorized.

        All coefficients and the rounded values are integers, and integer
        arithmetic in float64 is exact below 2**53.  The guard bounds every
        partial sum of a row below that, so the residual — per-nonzero
        products summed into their rows by ``np.bincount``, in whatever
        order — *is* the exact row activity whenever the guard holds.
        Returns ``None`` when it does not — the caller falls back to the
        pure-Python exact check — and ``True``/``False`` otherwise.
        ``bounds`` reuses already-patched variable-bound arrays.
        """
        max_x = float(np.abs(x).max()) if x.size else 0.0
        if (max_x + 1.0) * (self._max_abs_coeff + 1.0) * max(self.num_vars, 1) >= 2.0**53:
            return None
        lower, upper = bounds if bounds is not None else self._patched_bounds(patches)
        if np.any(x < lower) or np.any(x > upper):
            return False
        residual = np.bincount(
            self._row_of_nz,
            weights=self.data * x[self.indices],
            minlength=self.num_base_rows,
        )
        bad = (residual < self.base_row_lower) | (residual > self.base_row_upper)
        if bad.any():
            violated = set(np.nonzero(bad)[0].tolist())
            if not violated <= inactive_rows:
                return False
        for i in active:
            total = sum(c * x[j] for j, c in self._cut_coeffs[i].items())
            if total < self._cut_rows[i].rhs:
                return False
        return True

    def check_values(
        self,
        values: Mapping[VarId, int],
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        inactive_rows: frozenset[int] = frozenset(),
    ) -> list[str]:
        """Exact violations of base rows, patched bounds and active cuts.

        Deactivated base rows (``inactive_rows``) are exempt, exactly like
        inactive pool cuts.
        """
        problems = [
            row.pretty() for row in self._system.check(values, skip_rows=inactive_rows)
        ]
        for var, (lo, hi) in patches.items():
            value = values.get(var, 0)
            if lo is not None and value < lo:
                problems.append(f"{var} >= {lo} [patch]")
            if hi is not None and value > hi:
                problems.append(f"{var} <= {hi} [patch]")
        for i in active:
            row = self._cut_rows[i]
            if not row.evaluate(values):
                problems.append(row.pretty())
        return problems

    def _accept(
        self,
        x: np.ndarray,
        patches: Mapping[VarId, BoundPatch],
        active: set[int],
        inactive_rows: frozenset[int],
        bounds: tuple[np.ndarray, np.ndarray],
    ) -> dict[VarId, int] | None:
        """Round a float point; its values if they pass the exact check.

        The one way this module accepts a float solution: the vectorized
        check decides unless its magnitude guard trips, and then the
        pure-Python exact check is authoritative.  ``None`` means the
        rounded point is not an integer solution.
        """
        rounded = np.rint(x)
        passed = self._vector_check(rounded, patches, active, inactive_rows, bounds)
        if passed is False:
            return None
        values = self._values_from(rounded)
        if passed is None and self.check_values(values, patches, active, inactive_rows):
            return None
        return values

    def solve_int(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int] | None = None,
        inactive_rows: frozenset[int] = frozenset(),
    ) -> SolveResult:
        """Integer solve under bound patches, exact-checked, LP first: the
        MIP runs only when the relaxation's rounded vertex fails the exact
        check (see the module docstring).

        ``inactive_rows`` deactivates the named base rows for this solve
        (toggleable constraint rows; see the module docstring).  Status
        ``"error"`` means the float solution failed the exact check or the
        solver gave a doubtful status — callers fall back to the rational
        simplex on a materialized system.
        """
        active = active or set()
        if self.num_vars == 0:
            for i, row in enumerate(self._system.rows):
                if i not in inactive_rows and not row.evaluate({}):
                    return SolveResult("infeasible", message="constant row violated")
            return SolveResult("feasible", {})
        for integer in (False, True):
            status, x, bounds = self._solve_raw(patches, active, integer, inactive_rows)
            if status == "infeasible":
                return SolveResult("infeasible", message="patched system infeasible")
            if status == "optimal" and x is not None:
                values = self._accept(x, patches, active, inactive_rows, bounds)
                if values is not None:
                    return SolveResult("feasible", values)
        if status != "optimal" or x is None:
            return SolveResult("error", message="incremental solve inconclusive")
        violated = self.check_values(
            self._values_from(x), patches, active, inactive_rows
        )
        return SolveResult(
            "error",
            message="rounded incremental solution violates: " + "; ".join(violated[:3]),
        )

    def lp_probe(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int] | None = None,
        want_values: bool = True,
        inactive_rows: frozenset[int] = frozenset(),
        verified: bool = False,
    ) -> tuple[str, dict[VarId, int] | None]:
        """LP relaxation under bound patches.

        Returns ``("infeasible", None)`` only when definitely infeasible
        (sound for pruning), ``("feasible", candidate)`` with the rounded
        vertex, or ``("unknown", None)``.  Pruning callers that only need
        the status pass ``want_values=False`` to skip building the
        candidate dict.  With ``verified=True`` the rounded vertex is
        exact-checked against the active rows and patched bounds before
        being returned — ``("feasible", None)`` then means the relaxation
        is feasible but its rounded vertex is not an integer solution.
        """
        active = active or set()
        if self.num_vars == 0:
            bad = any(
                i not in inactive_rows and not row.evaluate({})
                for i, row in enumerate(self._system.rows)
            )
            return ("infeasible", None) if bad else ("feasible", {})
        status, x, bounds = self._solve_raw(patches, active, False, inactive_rows)
        if status == "infeasible":
            return "infeasible", None
        if status != "optimal" or x is None:
            return "unknown", None
        if not want_values:
            return "feasible", None
        if verified:
            return "feasible", self._accept(x, patches, active, inactive_rows, bounds)
        return "feasible", self._values_from(np.rint(x))

    def materialize(
        self,
        patches: Mapping[VarId, BoundPatch],
        active: set[int] | None = None,
        inactive_rows: frozenset[int] = frozenset(),
    ) -> LinearSystem:
        """An equivalent standalone :class:`LinearSystem` (for the exact
        backend and for fallbacks when a float solve is inconclusive)."""
        leaf = self._system.copy(drop_rows=inactive_rows)
        for var, (lo, hi) in patches.items():
            if lo is not None and lo > 0:
                leaf.add_ge({var: 1}, lo, label="patch-lower")
            if hi is not None:
                leaf.set_upper(var, hi)
        for i in sorted(active or ()):
            row = self._cut_rows[i]
            leaf.add_ge(dict(row.coeffs), row.rhs, label=row.label)
        return leaf
