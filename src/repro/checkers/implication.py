"""Implication checking: ``(D, Sigma) |- phi`` (Sections 3.3, 4.2, 5).

* keys only (any arity): linear time via subsumption and ``can_have_two``
  (Theorem 3.5(3)); refutations come with explicit counterexample trees
  built by Lemma 3.7's construction;
* unary constraints: coNP via consistency of ``Sigma ∪ {not phi}``
  (Theorems 4.10 and 5.4) — a negated key lands in C^unary_K¬,IC, a
  negated inclusion in C^unary_K¬,IC¬; foreign keys are conjunctions, so
  ``phi`` is implied iff both components are;
* multi-attribute keys+FKs: undecidable (Corollary 3.4) —
  :class:`UndecidableProblemError`.

Batch queries should go through :func:`implies_all`, which validates the
specification once and shares the per-DTD ``Psi_DN`` encoding block (see
:mod:`repro.encoding.combined`) across the whole batch — the shape of
every redundancy audit and implication benchmark, which otherwise re-derive
an identical encoding per query.  The queries of a batch are independent
of each other, so ``CheckerConfig(jobs=N)`` additionally fans them across
a fork-based worker pool (DESIGN.md section 7): each worker validates
nothing (the parent already did), holds its own ``Psi_DN`` cache and
solver state, and runs the ordinary sequential per-query path — results
and per-query statistics are therefore *identical* to ``jobs=1``, in the
original query order.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.constraints.ast import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.constraints.classes import validate_constraints
from repro.constraints.satisfaction import satisfies, satisfies_all
from repro.checkers.config import DEFAULT_CONFIG, CheckerConfig
from repro.checkers.consistency import check_consistency
from repro.checkers.keys_only import implies_key_keys_only, subsumes
from repro.checkers.results import ImplicationResult
from repro.dtd.model import DTD
from repro.encoding.combined import build_encoding
from repro.encoding.dtd_system import ext_var
from repro.errors import SolverError, UndecidableProblemError, WorkerCrashError
from repro.ilp.condsys import WorkerPool, fanout_map, solve_conditional_system
from repro.witness.synthesize import synthesize_witness
from repro.witness.values import make_all_values_distinct


def negate_constraint(phi: Constraint) -> Constraint:
    """The constraint asserting ``not phi`` (unary forms only): the
    extra member of the negation-consistency probe ``Sigma ∪ {not phi}``.
    """
    if isinstance(phi, Key):
        return NegKey(phi.element_type, phi.attrs[0])
    if isinstance(phi, InclusionConstraint):
        return NegInclusion(
            phi.child_type, phi.child_attrs[0], phi.parent_type, phi.parent_attrs[0]
        )
    if isinstance(phi, NegKey):
        return phi.key
    if isinstance(phi, NegInclusion):
        return phi.inclusion
    raise UndecidableProblemError(  # pragma: no cover - callers dispatch first
        f"cannot negate {phi!r} within the decidable classes"
    )


def _keys_only_counterexample(
    dtd: DTD, sigma: list[Key], phi: Key, config: CheckerConfig
):
    """Lemma 3.7's construction: a tree with two ``tau`` elements agreeing
    on ``phi``'s attributes and distinct everywhere else."""
    encoding = build_encoding(dtd, [], max_setrep_attrs=config.max_setrep_attrs)
    # Demand at least two tau elements, then solve as usual.
    encoding.condsys.base.add_ge(
        {ext_var(phi.element_type): 1}, 2, label="two-witnesses"
    )
    result, _stats = solve_conditional_system(
        encoding.condsys,
        backend=config.backend,
        max_support_nodes=config.max_support_nodes,
        lp_prune=config.lp_prune,
    )
    if not result.feasible:  # pragma: no cover - can_have_two said yes
        raise SolverError("encoding disagrees with can_have_two")
    tree = synthesize_witness(encoding, result.values)
    make_all_values_distinct(tree, dtd)
    first, second = tree.ext(phi.element_type)[:2]
    for attr in phi.attrs:
        second.attrs[attr] = first.attrs[attr]
    if config.verify_witness:
        report = encoding.validator.validate(tree)
        if not report or not satisfies_all(tree, sigma) or satisfies(tree, phi):
            raise SolverError("internal error: bad keys-only counterexample")
    return tree


def implies(
    dtd: DTD,
    sigma: Iterable[Constraint],
    phi: Constraint,
    config: CheckerConfig | None = None,
) -> ImplicationResult:
    """Does every tree with ``T |= D`` and ``T |= Sigma`` satisfy ``phi``?

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraint
    >>> d = DTD.build("db", {"db": "(item)", "item": "EMPTY"},
    ...               attrs={"item": ["id"]})
    >>> implies(d, [], parse_constraint("item.id -> item")).implied
    True
    """
    config = config or DEFAULT_CONFIG
    sigma = list(sigma)
    validate_constraints(dtd, [*sigma, phi])
    return implies_validated(dtd, sigma, phi, config)


def implies_validated(
    dtd: DTD,
    sigma: list[Constraint],
    phi: Constraint,
    config: CheckerConfig,
) -> ImplicationResult:
    """:func:`implies` after ``validate_constraints`` has already run."""

    # Keys-only fragment: linear time (Theorem 3.5(3)).
    if isinstance(phi, Key) and all(isinstance(psi, Key) for psi in sigma):
        implied = implies_key_keys_only(dtd, sigma, phi)
        method = "keys-only (Thm 3.5(3))"
        if implied:
            reason = (
                "subsumed by Sigma"
                if subsumes(sigma, phi)
                else f"no valid tree has two {phi.element_type!r} elements"
            )
            return ImplicationResult(True, method=method, message=reason)
        counterexample = None
        if config.want_witness:
            counterexample = _keys_only_counterexample(dtd, sigma, phi, config)
        return ImplicationResult(
            False, counterexample=counterexample, method=method
        )

    # Unary fragment: (D, Sigma) |- phi iff Sigma ∪ {not phi} is
    # inconsistent over D (Theorems 4.10 and 5.4).
    if isinstance(phi, ForeignKey):
        if not phi.is_unary():
            raise UndecidableProblemError(
                "implication for multi-attribute foreign keys is undecidable "
                "(Corollary 3.4)"
            )
        part = implies_validated(dtd, sigma, phi.inclusion, config)
        if not part.implied:
            return ImplicationResult(
                False,
                counterexample=part.counterexample,
                method="foreign key = inclusion AND key",
                message="inclusion component not implied",
            )
        part = implies_validated(dtd, sigma, phi.key, config)
        if not part.implied:
            return ImplicationResult(
                False,
                counterexample=part.counterexample,
                method="foreign key = inclusion AND key",
                message="key component not implied",
            )
        return ImplicationResult(True, method="foreign key = inclusion AND key")

    if not phi.is_unary() or any(not psi.is_unary() for psi in sigma):
        raise UndecidableProblemError(
            "implication for multi-attribute keys and foreign keys is "
            "undecidable (Corollary 3.4); only the keys-only and unary "
            "fragments are decidable"
        )

    negated = negate_constraint(phi)
    result = check_consistency(dtd, [*sigma, negated], config)
    method = f"negation-consistency via {result.method}"
    if result.consistent:
        return ImplicationResult(
            False,
            counterexample=result.witness,
            method=method,
            stats=result.stats,
        )
    return ImplicationResult(
        True,
        method=method,
        message=f"Sigma together with {negated} is inconsistent over the DTD",
        stats=result.stats,
    )


#: Per-process state of an implication worker: the validated batch it
#: answers queries for, set once by :func:`_init_implication_worker`.
_IMPLICATION_WORKER: dict = {}


def _init_implication_worker(payload: tuple) -> None:
    """Adopt the already-validated batch; each worker owns its caches."""
    dtd, sigma, phis, config = payload
    _IMPLICATION_WORKER["dtd"] = dtd
    _IMPLICATION_WORKER["sigma"] = sigma
    _IMPLICATION_WORKER["phis"] = phis
    _IMPLICATION_WORKER["config"] = config


def _implication_task(index: int) -> ImplicationResult:
    """Answer query ``phis[index]`` with the ordinary sequential path."""
    state = _IMPLICATION_WORKER
    return implies_validated(
        state["dtd"], state["sigma"], state["phis"][index], state["config"]
    )


def implies_all(
    dtd: DTD,
    sigma: Iterable[Constraint],
    phis: Iterable[Constraint],
    config: CheckerConfig | None = None,
) -> list[ImplicationResult]:
    """Batch implication: one :class:`ImplicationResult` per ``phi``.

    Semantically identical to calling :func:`implies` in a loop, but the
    specification is validated once and every query shares the memoized
    per-DTD encoding block, so only the constraint rows (``C_Sigma`` plus
    the negated query) are re-encoded per ``phi``.  Each distinct query
    is answered once: a repeated ``phi`` gets the result of its first
    occurrence, in its own position.

    With ``config.jobs > 1`` the distinct queries fan across a fork-based
    worker pool (the one ``jobs`` entry point of the checkers); each
    worker runs the identical sequential per-query code, so the returned
    results, their order, and every per-query stats counter match the
    sequential run exactly.

    >>> from repro.dtd.model import DTD
    >>> from repro.constraints.parser import parse_constraints
    >>> d = DTD.build("db", {"db": "(item)", "item": "EMPTY"},
    ...               attrs={"item": ["id"]})
    >>> [r.implied for r in implies_all(d, [], parse_constraints("item.id -> item"))]
    [True]
    """
    config = config or DEFAULT_CONFIG
    sigma = list(sigma)
    phis = list(phis)
    validate_constraints(dtd, [*sigma, *phis])
    distinct = list(dict.fromkeys(phis))
    results: list[ImplicationResult] | None = None
    if config.jobs > 1 and len(distinct) > 1 and WorkerPool.available():
        try:
            results = fanout_map(
                _implication_task,
                list(range(len(distinct))),
                config.jobs,
                _init_implication_worker,
                (dtd, sigma, distinct, config),
            )
        except WorkerCrashError:
            # Pool lost beyond recovery: fall through to the sequential
            # loop, whose results the fan-out is pinned to anyway.
            pass
    if results is None:
        results = [implies_validated(dtd, sigma, phi, config) for phi in distinct]
    by_query = dict(zip(distinct, results))
    return [by_query[phi] for phi in phis]
