"""DTD-level analyses: productivity, reachability, multiplicity.

These implement the linear-time decidable problems of Section 3.3:

* :func:`has_valid_tree` — Theorem 3.5(1): does a finite tree conform to
  ``D``? Equivalent to emptiness of the associated extended CFG, decided by
  the standard productivity fixpoint.
* :func:`can_have_two` — Lemma 3.6: is there a valid tree with
  ``|ext(tau)| > 1``? Decided with a saturating occurrence-count fixpoint.
* :func:`reachable_types` / :func:`usable_types` — structural helpers used
  by the consistency encodings and workload generators.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.regex.analysis import alphabet, can_derive_over, saturating_count
from repro.regex.ast import TEXT_SYMBOL


def productive_types(dtd: DTD) -> frozenset[str]:
    """Element types that derive some finite tree.

    A type ``tau`` is productive iff ``P(tau)`` can derive a word over
    productive symbols (text is always derivable: a text node is a leaf).
    Computed by the standard increasing fixpoint; terminates in at most
    ``|E|`` rounds.
    """
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        allowed = frozenset(productive) | {TEXT_SYMBOL}
        for tau in dtd.element_types:
            if tau in productive:
                continue
            if can_derive_over(dtd.content[tau], allowed):
                productive.add(tau)
                changed = True
    return frozenset(productive)


def reachable_types(dtd: DTD, start: str | None = None) -> frozenset[str]:
    """Element types reachable from ``start`` (default: the root) through
    content models, ``start`` included."""
    start = dtd.root if start is None else start
    reachable: set[str] = {start}
    frontier = [start]
    while frontier:
        tau = frontier.pop()
        for symbol in alphabet(dtd.content[tau]) - {TEXT_SYMBOL}:
            if symbol not in reachable:
                reachable.add(symbol)
                frontier.append(symbol)
    return frozenset(reachable)


def usable_types(dtd: DTD) -> frozenset[str]:
    """Types that can actually occur in some valid tree.

    A type occurs in a valid tree iff it is productive and reachable from
    the root through a context of productive types. We compute reachability
    restricted to productive types (an unproductive type on the path makes
    the whole branch underivable only if it is *unavoidable*; reachability
    here is existential, so we restrict edges to productive parents whose
    content models can embed the child alongside productive siblings).
    """
    productive = productive_types(dtd)
    if dtd.root not in productive:
        return frozenset()
    usable: set[str] = {dtd.root}
    frontier = [dtd.root]
    allowed = productive | {TEXT_SYMBOL}
    while frontier:
        tau = frontier.pop()
        expr = dtd.content[tau]
        for symbol in alphabet(expr) - {TEXT_SYMBOL}:
            if symbol in usable or symbol not in productive:
                continue
            # symbol is usable below tau iff some word of P(tau) over
            # productive symbols contains it: check derivability of a word
            # using productive symbols where `symbol` itself is permitted.
            weights = {s: 0 for s in allowed}
            weights[symbol] = 1
            count = saturating_count(expr, weights)
            if count is not None and count >= 1:
                usable.add(symbol)
                frontier.append(symbol)
    return frozenset(usable)


def has_valid_tree(dtd: DTD) -> bool:
    """Theorem 3.5(1): does any finite XML tree conform to ``dtd``?"""
    return dtd.root in productive_types(dtd)


def can_have_two(dtd: DTD, tau: str) -> bool:
    """Lemma 3.6: is there a valid tree with at least two ``tau`` elements?

    We compute, for every element type ``sigma``, the saturated maximum
    number ``cap[sigma] ∈ {0, 1, 2}`` of ``tau``-labelled nodes in any tree
    rooted at a ``sigma`` element (2 means "two or more"), by an increasing
    fixpoint: ``cap[sigma] = [sigma = tau] + max-word-weight of P(sigma)``
    where symbol weights are the current ``cap`` values and unproductive
    symbols are dead. The answer is ``cap[root] >= 2``.
    """
    if tau not in set(dtd.element_types):
        return False
    productive = productive_types(dtd)
    if dtd.root not in productive:
        return False
    cap: dict[str, int] = {sigma: 0 for sigma in productive}
    cap[TEXT_SYMBOL] = 0
    changed = True
    while changed:
        changed = False
        for sigma in productive:
            inner = saturating_count(dtd.content[sigma], cap)
            if inner is None:
                # Cannot happen for productive sigma, but stay defensive.
                continue
            value = min(2, inner + (1 if sigma == tau else 0))
            if value > cap[sigma]:
                cap[sigma] = value
                changed = True
    return cap[dtd.root] >= 2


def nondeterministic_types(dtd: DTD) -> dict[str, list[str]]:
    """Element types whose content models violate XML's determinism rule.

    The XML 1.0 standard requires 1-unambiguous content models; the
    paper's results do not depend on this, but real validating parsers
    reject violating DTDs, so the toolkit reports them. Maps each
    offending type to the symbols witnessing the ambiguity.
    """
    from repro.regex.determinism import nondeterminism_witnesses

    offenders: dict[str, list[str]] = {}
    for tau in dtd.element_types:
        witnesses = nondeterminism_witnesses(dtd.content[tau])
        if witnesses:
            offenders[tau] = witnesses
    return offenders


def required_children(dtd: DTD, tau: str) -> frozenset[str]:
    """Child element types that occur in *every* word of ``P(tau)``.

    A child ``a`` is required when ``P(tau)`` cannot derive any word over
    the remaining alphabet — i.e. a ``tau`` element can never avoid an
    ``a`` child.  These are exactly the loosening candidates of the
    repair engine (:mod:`repro.analysis.repair`): wrapping an *optional*
    child in ``?`` changes nothing, so only required children are edits.

    >>> from repro.dtd.model import DTD
    >>> d = DTD.build("r", {"r": "(a, b?, c*)", "a": "EMPTY",
    ...                     "b": "EMPTY", "c": "EMPTY"})
    >>> sorted(required_children(d, "r"))
    ['a']
    """
    expr = dtd.content[tau]
    symbols = alphabet(expr) - {TEXT_SYMBOL}
    full = symbols | {TEXT_SYMBOL}
    return frozenset(
        a for a in symbols if not can_derive_over(expr, full - {a})
    )


def must_occur(dtd: DTD, tau: str) -> bool:
    """Does every valid tree contain at least one ``tau`` element?

    Vacuously true when the DTD has no valid tree. Used by workload
    generators to build families where constraints on ``tau`` are
    unavoidable. Computed as: no tree avoiding ``tau`` exists, i.e. the
    root is unproductive once ``tau`` is removed from the alphabet.
    """
    if tau == dtd.root:
        return True
    restricted: set[str] = set()
    changed = True
    while changed:
        changed = False
        allowed = frozenset(restricted) | {TEXT_SYMBOL}
        for sigma in dtd.element_types:
            if sigma in restricted or sigma == tau:
                continue
            if can_derive_over(dtd.content[sigma], allowed):
                restricted.add(sigma)
                changed = True
    return dtd.root not in restricted
