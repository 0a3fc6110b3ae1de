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

Integer solves run **LP first**, as a three-step ladder.  The
LP-relaxation instance decides most of them: an infeasible relaxation
refutes every integer point, and a rounded vertex that passes the exact
check is an integer solution.  A warm-started run can land on a
fractional vertex of the same optimal face where a cold run would not,
so a vertex that fails the check is first re-solved cold (the basis
dropped, presolve included) when its run was warm.  Only when that
vertex fails too does the MIP run, on a second instance built on first
such use, which replays the cut pool at build time.  All of them
minimise ``sum(x)``, so an integral LP optimum is also a MIP optimum,
but it may be a different optimal vertex than the MIP would pick:
witnesses are equally valid, not necessarily the same.  ``lp_solves``
(cold re-runs included) and ``mip_solves`` count the HiGHS runs of each
instance.  HiGHS is the binding scipy vendors; :func:`_load_highs_core`
loads that extension straight from its file.  That file is all this
package takes from scipy: no scipy Python package is imported on any
path, and the exact re-check of a rounded point is a numpy-only row
residual (:meth:`AssembledSystem._vector_check`).

**Warm start from the DTD block.**  Every ``Psi(D, Sigma)`` over one DTD
starts with the same ``Psi_DN`` rows and columns, so each cached DTD
block owns a :class:`BlockEngine`: one LP instance holding ``Psi_DN``,
solved once, whose optimal basis is the canonical start of every solve
over that DTD.  An :class:`AssembledSystem` given the engine leases it
for its LP relaxation (the ``C_Sigma`` columns and rows appended, the
canonical basis set) and hands it back on :meth:`AssembledSystem.release`,
which deletes the appended part again.  A solve that finds the engine
leased builds a private instance of its whole model started from the
same extended basis instead, so the two answer alike.
:class:`LiveEngines` bounds how many engines keep their instance alive
between leases; the others keep only the basis.

**Toggleable rows** (DESIGN.md section 6) extend the same discipline to the
*base* rows: a solve may name ``inactive_rows`` — base-row indices whose
bounds are relaxed to ``(-inf, inf)`` for that solve, exactly the mechanism
that switches pooled connectivity cuts on and off.  The encoders register
each ``C_Sigma`` row (and each negated-constraint row) under its stable row
index, so diagnostics can probe any constraint subset by bound flips on the
one assembled system instead of re-encoding it per subset.

An :class:`AssembledSystem` — like the persistent HiGHS instances it
drives — is **single-owner state**: it is never shared across processes
or threads, and connectivity cuts never leave the solve state that
learned them.  The one HiGHS instance that outlives a solve, a block's
:class:`BlockEngine`, is shared only by lease: its lock admits one solve
at a time, the others (other threads) build private instances, and the
lease returns the instance to exactly ``Psi_DN`` before the lock is
released.

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
import math
import os
import sys
import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

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
# Bound arrays go to HiGHS as they are, with numpy's inf as "unbounded":
# a binding whose sentinel differs must fail here, not mis-solve.
if _highs.kHighsInf != math.inf:  # pragma: no cover - binding drift
    raise ImportError(f"HiGHS infinity is {_highs.kHighsInf!r}, not IEEE inf")


@dataclass(frozen=True)
class RowBlock:
    """CSR arrays and row bounds of a run of consecutive rows.

    ``indptr`` starts at 0; ``indices`` are the system's column indices.
    A block frozen with :func:`freeze_row_prefix` has read-only arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.row_lower)


def assemble_rows(system: LinearSystem, start: int = 0) -> RowBlock:
    """The :class:`RowBlock` of ``system``'s rows from index ``start`` on.

    Duplicate variable mentions within a row are merged, like the dense
    assembly's ``+=`` did, and each row's columns are sorted.
    """
    rows = system.rows[start:]
    num_rows = len(rows)
    indptr = np.zeros(num_rows + 1, dtype=np.int32)
    indices: list[int] = []
    data: list[float] = []
    row_lower = np.full(num_rows, -np.inf)
    row_upper = np.full(num_rows, np.inf)
    for i, row in enumerate(rows):
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
    return RowBlock(
        indptr,
        np.array(indices, dtype=np.int32),
        np.array(data, dtype=np.float64),
        row_lower,
        row_upper,
    )


def freeze_row_prefix(system: LinearSystem) -> None:
    """Assemble every current row of ``system`` once, as its
    :attr:`~repro.ilp.model.LinearSystem.row_prefix`.

    Every plain copy shares the read-only arrays, so
    :func:`assemble_arrays` on a copy assembles only the rows appended
    after this call.  The per-DTD ``Psi_DN`` block
    (:mod:`repro.encoding.combined`) is the one caller.
    """
    block = assemble_rows(system)
    for array in (block.indptr, block.indices, block.data, block.row_lower, block.row_upper):
        array.flags.writeable = False
    system.row_prefix = block


def assemble_arrays(system: LinearSystem):
    """Sparse CSR triplets and bound arrays for a :class:`LinearSystem`.

    Returns ``(indptr, indices, data, row_lower, row_upper, var_lower,
    var_upper)``.  Rows covered by the system's ``row_prefix`` are taken
    from it and only the rows past it are assembled; the arrays are the
    same, bit for bit, as assembling every row (:func:`assemble_rows`
    is the one row assembler).  Variable bounds are always rebuilt.
    """
    prefix = system.row_prefix
    if prefix is None:
        rows = assemble_rows(system)
    else:
        tail = assemble_rows(system, prefix.num_rows)
        rows = RowBlock(
            np.concatenate((prefix.indptr, tail.indptr[1:] + prefix.indptr[-1])),
            np.concatenate((prefix.indices, tail.indices)),
            np.concatenate((prefix.data, tail.data)),
            np.concatenate((prefix.row_lower, tail.row_lower)),
            np.concatenate((prefix.row_upper, tail.row_upper)),
        )
    var_lower = np.zeros(system.num_vars)
    var_upper = np.full(system.num_vars, np.inf)
    index_of = system.index_of
    for var, bound in system.upper_bounds().items():
        var_upper[index_of(var)] = float(bound)
    return (
        rows.indptr,
        rows.indices,
        rows.data,
        rows.row_lower,
        rows.row_upper,
        var_lower,
        var_upper,
    )


def _new_highs():
    """A quiet, single-threaded HiGHS instance."""
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
    return h


def _pass_model(
    h, rows: RowBlock, col_lower: np.ndarray, col_upper: np.ndarray, integer: bool
) -> None:
    """Pass ``min sum(x)`` subject to ``rows`` and the column bounds."""
    num_cols = len(col_lower)
    lp = _highs.HighsLp()
    lp.num_col_ = num_cols
    lp.num_row_ = rows.num_rows
    lp.col_cost_ = np.ones(num_cols)
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = rows.row_lower
    lp.row_upper_ = rows.row_upper
    matrix = _highs.HighsSparseMatrix()
    matrix.format_ = _highs.MatrixFormat.kRowwise
    matrix.num_col_ = num_cols
    matrix.num_row_ = rows.num_rows
    matrix.start_ = rows.indptr
    matrix.index_ = rows.indices
    matrix.value_ = rows.data
    lp.a_matrix_ = matrix
    if integer:
        lp.integrality_ = np.array([_highs.HighsVarType.kInteger] * num_cols)
    if h.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the assembled model")


class _HighsInstance:
    """One persistent HiGHS model: pass once, then patch bounds and re-run.

    ``has_basis`` says whether the next run starts from a basis (a warm
    start); ``last_warm`` whether the last run did.
    """

    def __init__(self, h, num_cols: int, num_rows: int, has_basis: bool = False):
        self._h = h
        self._n = num_cols
        self._all_cols = np.arange(num_cols, dtype=np.int32)
        self._num_rows = num_rows
        self.has_basis = has_basis
        self.last_warm = False

    @classmethod
    def build(
        cls, assembled: "AssembledSystem", integer: bool, basis=None
    ) -> "_HighsInstance":
        """A new instance holding ``assembled``'s base model, warm-started
        from ``basis`` when one is given."""
        h = _new_highs()
        _pass_model(
            h, assembled.base_rows, assembled.base_var_lower,
            assembled.base_var_upper, integer,
        )
        if basis is not None and h.setBasis(basis) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS rejected a starting basis")  # pragma: no cover
        return cls(h, assembled.num_vars, assembled.num_base_rows, basis is not None)

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
        self._h.changeRowBounds(row, lower, upper)

    def solve(
        self, var_lower: np.ndarray, var_upper: np.ndarray, cold: bool = False
    ) -> tuple[str, np.ndarray | None]:
        """Re-solve under patched variable bounds; ``cold`` drops the
        basis first, so the run starts from scratch (presolve included).

        Returns ``("optimal", x)``, ``("infeasible", None)`` or
        ``("unknown", None)`` — anything numerically doubtful is "unknown".
        """
        h = self._h
        if cold:
            h.clearSolver()
            self.has_basis = False
        self.last_warm = self.has_basis
        self.has_basis = True
        h.changeColsBounds(self._n, self._all_cols, var_lower, var_upper)
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


class LiveEngines:
    """The :class:`BlockEngine` instances of one cache: lease counters,
    and a bound on how many keep a live HiGHS instance.

    A solved instance holds ~220 KB of HiGHS state, while the canonical
    basis an engine needs to warm-start a solve is two short lists.  So
    only the ``limit`` most recently leased engines keep their instance;
    a lease that would exceed it drops the least recently leased
    instance that is not leased right now (its engine rebuilds the
    instance on its next lease, from the model and the kept basis,
    without solving again).
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._lock = threading.Lock()
        self._live: OrderedDict[BlockEngine, None] = OrderedDict()
        self._counts = {"engine_leases": 0, "engine_private": 0}

    def counts(self) -> dict[str, int]:
        """Leases so far, and private stand-ins built while leased."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Forget every engine and reset the counters."""
        with self._lock:
            self._live.clear()
            for name in self._counts:
                self._counts[name] = 0

    def count_private(self) -> None:
        with self._lock:
            self._counts["engine_private"] += 1

    def leased(self, engine: BlockEngine) -> None:
        """Book a lease of ``engine`` (whose lock the caller holds) and
        drop instances past the limit."""
        with self._lock:
            self._counts["engine_leases"] += 1
            self._live[engine] = None
            self._live.move_to_end(engine)
            for victim in list(self._live)[: max(0, len(self._live) - self.limit)]:
                # Never drop an instance in use; a held lock means the
                # victim is leased, so skip it.
                if victim.lock.acquire(blocking=False):
                    victim._h = None
                    victim.lock.release()
                    del self._live[victim]


class BlockEngine:
    """The LP instance of one frozen row prefix, lent to one solve at a time.

    ``system`` is a :class:`LinearSystem` whose every row is its
    :func:`frozen <freeze_row_prefix>` row prefix: the per-DTD ``Psi_DN``
    block (:mod:`repro.encoding.combined`).  On first use the engine passes
    it to HiGHS and solves it once; that optimal basis is the *canonical*
    starting basis of every solve over a system extending the prefix.

    An :class:`AssembledSystem` over such a system takes a :meth:`lease`:
    the instance drops its solver state, takes the canonical basis and
    appends the system's extra columns (non-basic at their lower bound)
    and rows (basic slacks), so the first solve is a warm start instead of
    a model build plus a cold run.  :meth:`release` deletes the appended
    rows and columns again and restores the prefix bounds.  While the
    engine is leased to another thread, a solve builds a :meth:`private`
    instance instead: the full model plus
    the same extended basis.  Both start from the same model and basis,
    so no answer depends on contention, on what the engine solved
    before, or on whether ``live`` dropped its instance in between.
    """

    def __init__(self, system: LinearSystem, live: LiveEngines):
        self.prefix: RowBlock = system.row_prefix
        self.num_cols = system.num_vars
        self._system = system
        self._live = live
        #: Held by the solve the engine is lent to.
        self.lock = threading.Lock()
        self._h = None
        self._solved = False
        self._col_lower: np.ndarray | None = None
        self._col_upper: np.ndarray | None = None
        self._basis = None
        self._col_status: list = []
        self._row_status: list = []

    def fits(self, system: LinearSystem) -> bool:
        """Does ``system`` extend this engine's prefix?"""
        return system.row_prefix is self.prefix and system.num_vars >= self.num_cols

    def _prefix_instance(self):
        h = _new_highs()
        _pass_model(h, self.prefix, self._col_lower, self._col_upper, integer=False)
        return h

    def _solve_canonical(self):
        """Solve the prefix once for the canonical basis; returns the
        instance that solved it, or ``None`` if that happened before.

        No lock: threads that race here solve the same model to the same
        basis, and ``_solved`` is set last.
        """
        if self._solved:
            return None
        *_, self._col_lower, self._col_upper = assemble_arrays(self._system)
        h = self._prefix_instance()
        h.run()
        if h.getModelStatus() == _highs.HighsModelStatus.kOptimal:
            basis = h.getBasis()
            if basis.valid:
                self._col_status = list(basis.col_status)
                self._row_status = list(basis.row_status)
                self._basis = basis
        self._solved = True
        return h

    def _start_basis(self, num_cols: int, num_rows: int):
        """The canonical basis extended to ``num_cols`` x ``num_rows``, as
        HiGHS extends a basis on appends: new columns non-basic at their
        (zero) lower bound, new rows basic.  ``None`` if the prefix had no
        optimal basis (every solve then starts cold)."""
        self._solve_canonical()
        if self._basis is None:
            return None
        basis = _highs.HighsBasis()
        basis.col_status = self._col_status + [_highs.HighsBasisStatus.kLower] * (
            num_cols - self.num_cols
        )
        basis.row_status = self._row_status + [_highs.HighsBasisStatus.kBasic] * (
            num_rows - self.prefix.num_rows
        )
        basis.valid = True
        basis.alien = False
        basis.was_alien = False
        return basis

    def lease(self, assembled: "AssembledSystem") -> _HighsInstance | None:
        """The engine extended to ``assembled``'s base model, or ``None``
        when it is already leased (then use :meth:`private`)."""
        if not self.lock.acquire(blocking=False):
            return None
        try:
            solved = self._solve_canonical()
            if self._h is None:
                self._h = solved or self._prefix_instance()
            h = self._h
            h.clearSolver()
            if self._basis is not None:
                h.setBasis(self._basis)
            extra_cols = assembled.num_vars - self.num_cols
            if extra_cols:
                empty = np.zeros(0, dtype=np.int32)
                h.addCols(
                    extra_cols,
                    np.ones(extra_cols),
                    assembled.base_var_lower[self.num_cols:],
                    assembled.base_var_upper[self.num_cols:],
                    0, empty, empty, np.zeros(0),
                )
            first = self.prefix.num_rows
            extra_rows = assembled.num_base_rows - first
            if extra_rows:
                offset = assembled.indptr[first]
                h.addRows(
                    extra_rows,
                    assembled.base_row_lower[first:],
                    assembled.base_row_upper[first:],
                    len(assembled.indices) - offset,
                    (assembled.indptr[first:-1] - offset).astype(np.int32),
                    assembled.indices[offset:],
                    assembled.data[offset:],
                )
        except BaseException:
            self._h = None  # unknown state: the next lease builds anew
            self.lock.release()
            raise
        self._live.leased(self)
        return _HighsInstance(
            h, assembled.num_vars, assembled.num_base_rows, self._basis is not None
        )

    def private(self, assembled: "AssembledSystem") -> _HighsInstance:
        """A stand-in for a leased engine: ``assembled``'s full model and
        the extended canonical basis in a new instance."""
        basis = self._start_basis(assembled.num_vars, assembled.num_base_rows)
        self._live.count_private()
        return _HighsInstance.build(assembled, False, basis)

    def release(self, touched_rows=()) -> None:
        """Take the lease back: delete the appended rows and columns, and
        restore the bounds of the prefix rows in ``touched_rows`` and of
        every prefix column."""
        try:
            h = self._h
            rows, cols = h.getNumRow(), h.getNumCol()
            first = self.prefix.num_rows
            if rows > first:
                h.deleteRows(rows - first, np.arange(first, rows, dtype=np.int32))
            if cols > self.num_cols:
                h.deleteCols(
                    cols - self.num_cols,
                    np.arange(self.num_cols, cols, dtype=np.int32),
                )
            for i in touched_rows:
                if i < first:
                    h.changeRowBounds(
                        i, float(self.prefix.row_lower[i]), float(self.prefix.row_upper[i])
                    )
            h.changeColsBounds(
                self.num_cols,
                np.arange(self.num_cols, dtype=np.int32),
                self._col_lower,
                self._col_upper,
            )
        except BaseException:
            self._h = None  # unknown state: the next lease builds anew
            raise
        finally:
            self.lock.release()


class AssembledSystem:
    """A base system assembled once, solved many times under bound patches.

    The matrix never changes except by *appending* cut rows; each solve
    supplies per-variable bound patches and the set of active cut indices.
    Cut rows stay in the model permanently and are deactivated by relaxing
    their lower bound to ``-inf``, so activation is O(pool) bound flips,
    never a re-assembly.
    """

    def __init__(self, system: LinearSystem, engine: BlockEngine | None = None):
        self._system = system
        #: The block engine the LP instance is leased from (or stands in
        #: for); ``None`` builds a cold instance of the whole model.
        self._block_engine = engine if engine is not None and engine.fits(system) else None
        self._leased = False
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
    def base_rows(self) -> RowBlock:
        return RowBlock(
            self.indptr, self.indices, self.data, self.base_row_lower, self.base_row_upper
        )

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
                self._int_engine = _HighsInstance.build(self, integer=True)
                self._engine_cut_state[0] = [True] * self.num_cuts
                self._engine_inactive_rows[0] = set()
                for i, coeffs in enumerate(self._cut_coeffs):
                    self._int_engine.add_row(coeffs, float(self._cut_rows[i].rhs))
            return self._int_engine
        if self._lp_engine is None:
            self._lp_engine = self._new_lp_instance()
            self._engine_cut_state[1] = [True] * self.num_cuts
            self._engine_inactive_rows[1] = set()
            for i, coeffs in enumerate(self._cut_coeffs):
                self._lp_engine.add_row(coeffs, float(self._cut_rows[i].rhs))
        return self._lp_engine

    def _new_lp_instance(self) -> _HighsInstance:
        """A lease of the block engine, a stand-in while another solve
        holds it, or (without a block engine) a cold instance."""
        engine = self._block_engine
        if engine is None:
            return _HighsInstance.build(self, integer=False)
        instance = engine.lease(self)
        if instance is None:
            return engine.private(self)
        self._leased = True
        return instance

    def release(self) -> None:
        """Hand a leased block engine back; a no-op without a lease.

        The LP instance goes with it: a later solve leases again.
        """
        if not self._leased:
            return
        self._leased = False
        self._lp_engine = None
        self._block_engine.release(self._engine_inactive_rows[1])

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
        cold: bool = False,
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
        status, x = self._engine(integer).solve(lower, upper, cold)
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
        """Integer solve under bound patches, exact-checked, LP first: a
        relaxation vertex that fails the exact check is re-solved cold
        when its run was warm-started, and the MIP runs only when that
        vertex fails too (see the module docstring).

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
        for integer, cold in ((False, False), (False, True), (True, False)):
            if cold and not self._lp_engine.last_warm:
                continue  # the relaxation already ran cold
            status, x, bounds = self._solve_raw(
                patches, active, integer, inactive_rows, cold
            )
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
