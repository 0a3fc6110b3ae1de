"""Witness checking through one label index per tree.

``violations`` and ``assign_values`` group a tree's elements by label in
one walk (:meth:`XMLTree.by_label`) instead of walking the whole tree per
constraint and per attribute pair (:meth:`XMLTree.ext`).  These tests pin
that the index changes nothing: on random trees both agree with the
``ext``-based reading.
"""

from __future__ import annotations

import random

import pytest

from repro.checkers.consistency import check_consistency
from repro.constraints.ast import (
    Constraint,
    ForeignKey,
    InclusionConstraint,
    Key,
    NegInclusion,
    NegKey,
)
from repro.constraints.satisfaction import satisfies, satisfies_all, violations
from repro.encoding.combined import build_encoding
from repro.errors import ReproError
from repro.ilp.condsys import solve_conditional_system
from repro.witness.skeleton import assemble_skeleton
from repro.witness.values import assign_values
from repro.workloads.generators import random_dtd, random_unary_constraints
from repro.xmltree.model import Element, XMLTree
from repro.xmltree.serialize import tree_to_string
from repro.xmltree.transform import splice_types

LABELS = ("a", "b", "c")
ATTRS = ("k", "l")


def _random_tree(rng: random.Random, size: int) -> XMLTree:
    """A random tree over :data:`LABELS` with small, colliding values."""
    root = Element("r")
    nodes = [root]
    for _ in range(size):
        node = Element(rng.choice(LABELS))
        for attr in ATTRS:
            if rng.random() < 0.9:  # sometimes absent: the None rows
                node.attrs[attr] = str(rng.randrange(4))
        rng.choice(nodes).children.append(node)
        nodes.append(node)
    return XMLTree(root)


def _random_constraint(rng: random.Random) -> Constraint:
    tau, other = rng.choice(LABELS), rng.choice(LABELS)
    attr, other_attr = rng.choice(ATTRS), rng.choice(ATTRS)
    kind = rng.randrange(6)
    if kind == 0:
        return Key(tau, (attr,))
    if kind == 1:
        return Key(tau, ATTRS)
    if kind == 2:
        return InclusionConstraint(tau, (attr,), other, (other_attr,))
    if kind == 3:
        return ForeignKey(InclusionConstraint(tau, (attr,), other, (other_attr,)))
    if kind == 4:
        return NegKey(tau, attr)
    return NegInclusion(tau, attr, other, other_attr)


def _ext_rows(tree: XMLTree, tau: str, attrs: tuple[str, ...]) -> list:
    rows = []
    for node in tree.ext(tau):
        try:
            rows.append(tuple(node.attrs[attr] for attr in attrs))
        except KeyError:
            rows.append(None)
    return rows


def _ext_satisfies(tree: XMLTree, phi: Constraint) -> bool:
    """``T |= phi`` read through ``ext``, one tree walk per extent."""
    if isinstance(phi, Key):
        rows = [row for row in _ext_rows(tree, phi.element_type, phi.attrs) if row]
        return len(rows) == len(set(rows))
    if isinstance(phi, InclusionConstraint):
        parents = set(_ext_rows(tree, phi.parent_type, phi.parent_attrs)) - {None}
        return all(
            row is not None and row in parents
            for row in _ext_rows(tree, phi.child_type, phi.child_attrs)
        )
    if isinstance(phi, ForeignKey):
        return _ext_satisfies(tree, phi.inclusion) and _ext_satisfies(tree, phi.key)
    if isinstance(phi, NegKey):
        return not _ext_satisfies(tree, phi.key)
    return not _ext_satisfies(tree, phi.inclusion)


@pytest.mark.parametrize("seed", range(40))
def test_violations_agree_with_ext(seed):
    rng = random.Random(seed)
    tree = _random_tree(rng, rng.randrange(0, 25))
    index = tree.by_label()
    assert set(index) == {node.label for node in tree.elements()}
    for label, nodes in index.items():
        assert nodes == tree.ext(label)
    sigma = [_random_constraint(rng) for _ in range(8)]
    expected = [phi for phi in sigma if not _ext_satisfies(tree, phi)]
    assert violations(tree, sigma) == expected
    assert satisfies_all(tree, sigma) is (not expected)
    for phi in sigma:
        assert satisfies(tree, phi) is _ext_satisfies(tree, phi)


def _ext_index(tree: XMLTree) -> dict[str, list[Element]]:
    return {node.label: tree.ext(node.label) for node in tree.elements()}


@pytest.mark.parametrize("seed", range(0, 200, 5))
def test_assign_values_agrees_with_ext(seed, monkeypatch):
    dtd = random_dtd(seed, num_types=3 + seed % 3)
    sigma = random_unary_constraints(
        seed * 31 + 7,
        dtd,
        num_keys=seed % 3,
        num_fks=(seed + 1) % 3,
        num_neg_keys=seed % 2,
        num_neg_inclusions=(seed + 1) % 2,
    )
    try:
        encoding = build_encoding(dtd, sigma)
    except ReproError:
        pytest.skip("outside the encoded fragment")
    result, _ = solve_conditional_system(encoding.condsys)
    if not result.feasible:
        assert not check_consistency(dtd, sigma).consistent
        return

    def valued(index_of) -> str:
        skeleton = assemble_skeleton(encoding.simple, result.values)
        tree = splice_types(
            skeleton, lambda label: not encoding.simple.is_original(label)
        )
        with monkeypatch.context() as patch:
            patch.setattr(XMLTree, "by_label", index_of)
            assign_values(tree, dtd, encoding, result.values)
        return tree_to_string(tree)

    assert valued(XMLTree.by_label) == valued(_ext_index)
