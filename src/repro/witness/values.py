"""Attribute value assignment (Lemmas 4.4 and 5.2, Corollary 4.9).

Given the contracted skeleton and the solved cardinalities
``k = |ext(tau.l)|``, assign string values such that:

* every pair has exactly ``k`` distinct values (matching the solution);
* keys get a bijection (``k = |ext(tau)|`` by the key row);
* negated keys get a genuine collision (``k < |ext(tau)|`` by the negated
  key row, so any surjection collides — the pigeonhole step of Cor. 4.9);
* inclusion constraints hold *set-wise*:

  - without negated inclusions, all pairs draw from one global value chain
    ``w0 < w1 < ...`` and each pair uses the prefix of its cardinality, so
    ``k1 <= k2`` gives set containment (Lemma 4.4's construction);
  - with negated inclusions, the *active* pairs take their values from the
    solved set representation (each ``z_theta`` unit is a fresh token
    shared by exactly the pairs in ``theta``), which realizes both the
    inclusions (``v_ij = 0``) and the negated inclusions (``v_ij >= 1``)
    exactly (Lemma 5.2); inactive pairs get pair-local tokens that cannot
    collide with the shared ones.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.dtd.model import DTD
from repro.encoding.cardinality import attr_var
from repro.encoding.combined import ConsistencyEncoding
from repro.encoding.setrep import extract_sets
from repro.errors import SolverError
from repro.ilp.model import VarId
from repro.xmltree.model import XMLTree


def make_all_values_distinct(tree: XMLTree, dtd: DTD) -> None:
    """Give every attribute of every element a globally unique value.

    This is the witness construction of Theorem 3.5(2): with all values
    distinct, *every* key — multi-attribute included — holds, so a set of
    keys is satisfiable over ``D`` exactly when ``D`` has any valid tree.
    """
    counter = 0
    for node in tree.elements():
        for attr in sorted(dtd.attrs(node.label)):
            node.attrs[attr] = f"u{counter}"
            counter += 1


def assign_values(
    tree: XMLTree,
    dtd: DTD,
    encoding: ConsistencyEncoding,
    values: Mapping[VarId, int],
) -> None:
    """Mutate ``tree``: give every element its attributes per the solution."""
    key_pairs = {(key.element_type, key.attrs[0]) for key in encoding.keys}
    setrep_sets: dict[tuple[str, str], list[str]] = {}
    if encoding.setrep is not None:
        setrep_sets = extract_sets(encoding.setrep, values, prefix="s")

    by_label = tree.by_label()  # values change, the shape does not
    for tau, attr in dtd.attribute_pairs():
        nodes = by_label.get(tau, [])
        node_count = len(nodes)
        cardinality = values.get(attr_var(tau, attr), 0)
        if node_count == 0:
            if cardinality != 0:
                raise SolverError(
                    f"solution claims {cardinality} values for {tau}.{attr} "
                    "but the tree has no such elements"
                )
            continue
        if not 1 <= cardinality <= node_count:
            raise SolverError(
                f"|ext({tau}.{attr})| = {cardinality} is impossible with "
                f"{node_count} elements (attribute totality)"
            )
        pair = (tau, attr)
        if pair in setrep_sets:
            tokens = setrep_sets[pair]
            if len(tokens) != cardinality:
                raise SolverError(
                    f"set representation of {tau}.{attr} has {len(tokens)} "
                    f"values, solution says {cardinality}"
                )
        elif encoding.setrep is not None:
            # Inactive pair while shared tokens exist: use a pair-local
            # namespace so no accidental (non-)inclusions arise.
            tokens = [f"{tau}.{attr}:{index}" for index in range(cardinality)]
        else:
            # Lemma 4.4's global prefix chain.
            tokens = [f"w{index}" for index in range(cardinality)]

        if pair in key_pairs:
            if cardinality != node_count:
                raise SolverError(
                    f"key {tau}.{attr} requires |ext| = |ext(.l)|; solution "
                    f"has {node_count} vs {cardinality}"
                )
            for node, token in zip(nodes, tokens):
                node.attrs[attr] = token
        else:
            # Surjection onto the token set: first `cardinality` nodes get
            # distinct tokens, the rest repeat the last one (collision for
            # negated keys comes out of cardinality < node_count).
            for index, node in enumerate(nodes):
                node.attrs[attr] = tokens[min(index, cardinality - 1)]
