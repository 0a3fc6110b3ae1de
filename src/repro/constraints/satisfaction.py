"""Constraint satisfaction on XML trees: ``T |= phi`` (Section 2.2).

Keys compare attribute values by string equality and elements by node
identity; inclusion constraints compare value *lists*; foreign keys require
both of their components; negations hold when the corresponding positive
constraint fails *in the specific witnessed way* the paper defines (which
for these forms coincides with plain logical negation).
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
from repro.xmltree.model import Element, XMLTree


def _value_lists(
    by_label: dict[str, list[Element]], element_type: str, attrs: tuple[str, ...]
) -> list[tuple[str, ...] | None]:
    """Per-element tuples of attribute values (None if any attribute absent).

    In a DTD-conformant tree attributes are total, so ``None`` only appears
    for malformed inputs; a ``None`` tuple never matches anything, which is
    the conservative reading.  ``by_label`` is the tree's
    :meth:`~repro.xmltree.model.XMLTree.by_label` index.
    """
    rows: list[tuple[str, ...] | None] = []
    for node in by_label.get(element_type, ()):
        try:
            rows.append(tuple(node.attrs[attr] for attr in attrs))
        except KeyError:
            rows.append(None)
    return rows


def satisfies(tree: XMLTree, phi: Constraint) -> bool:
    """Does ``tree |= phi``?

    >>> from repro.xmltree.builder import element
    >>> t = XMLTree(element("db", element("u", k="1"), element("u", k="1")))
    >>> satisfies(t, Key("u", ("k",)))
    False
    >>> satisfies(t, NegKey("u", "k"))
    True
    """
    return _holds(tree.by_label(), phi)


def _holds(by_label: dict[str, list[Element]], phi: Constraint) -> bool:
    """:func:`satisfies` over a tree's label index."""
    if isinstance(phi, Key):
        seen: set[tuple[str, ...]] = set()
        for row in _value_lists(by_label, phi.element_type, phi.attrs):
            if row is None:
                continue
            if row in seen:
                return False
            seen.add(row)
        return True
    if isinstance(phi, InclusionConstraint):
        parent_rows = {
            row
            for row in _value_lists(by_label, phi.parent_type, phi.parent_attrs)
            if row is not None
        }
        for row in _value_lists(by_label, phi.child_type, phi.child_attrs):
            if row is None or row not in parent_rows:
                return False
        return True
    if isinstance(phi, ForeignKey):
        return _holds(by_label, phi.inclusion) and _holds(by_label, phi.key)
    if isinstance(phi, NegKey):
        return not _holds(by_label, phi.key)
    if isinstance(phi, NegInclusion):
        return not _holds(by_label, phi.inclusion)
    raise TypeError(f"unknown constraint {phi!r}")


def satisfies_all(tree: XMLTree, constraints: Iterable[Constraint]) -> bool:
    """Does ``tree |= Sigma`` for every constraint in the collection?"""
    by_label = tree.by_label()
    return all(_holds(by_label, phi) for phi in constraints)


def violations(tree: XMLTree, constraints: Iterable[Constraint]) -> list[Constraint]:
    """The subset of constraints the tree violates (for diagnostics)."""
    by_label = tree.by_label()
    return [phi for phi in constraints if not _holds(by_label, phi)]
