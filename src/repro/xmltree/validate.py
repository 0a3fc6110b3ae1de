"""Conformance checking ``T |= D`` (Definition 2.2).

A tree is valid with respect to a DTD when

* the root is labelled with the DTD's root type;
* every element's label is a declared element type;
* every element's child-label word belongs to the language of its content
  model (checked with a cached Glushkov automaton) — an element with no
  children also matches a model that accepts a single text node, because
  under XML 1.0 empty ``(#PCDATA)`` content is the empty string (so a
  serialized ``<t></t>`` round-trips);
* every element of type ``tau`` carries exactly the attributes ``R(tau)``,
  each with a string value (attributes are total and single-valued).

Failures are collected into a :class:`ValidationReport` rather than raised:
non-conformance is an ordinary answer, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dtd.model import DTD
from repro.regex.ast import TEXT_SYMBOL
from repro.regex.glushkov import GlushkovAutomaton
from repro.xmltree.model import XMLTree


@dataclass
class ValidationReport:
    """Outcome of a conformance check; truthy iff the tree conforms."""

    ok: bool
    errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


class TreeValidator:
    """Reusable validator with per-element-type automaton caching."""

    def __init__(self, dtd: DTD):
        self._dtd = dtd
        self._automata: dict[str, GlushkovAutomaton] = {}

    @property
    def dtd(self) -> DTD:
        """The DTD this validator checks against."""
        return self._dtd

    def _automaton(self, tau: str) -> GlushkovAutomaton:
        cached = self._automata.get(tau)
        if cached is None:
            cached = GlushkovAutomaton(self._dtd.content[tau])
            self._automata[tau] = cached
        return cached

    def validate(self, tree: XMLTree, max_errors: int = 20) -> ValidationReport:
        """Check ``tree |= dtd``; collect up to ``max_errors`` messages."""
        errors: list[str] = []
        types = set(self._dtd.element_types)

        def report(message: str) -> bool:
            errors.append(message)
            return len(errors) >= max_errors

        if tree.root.label != self._dtd.root:
            report(
                f"root is labelled {tree.root.label!r}, expected {self._dtd.root!r}"
            )
        for node in tree.elements():
            if len(errors) >= max_errors:
                break
            if node.label not in types:
                if report(f"element type {node.label!r} is not declared in the DTD"):
                    break
                continue
            word = node.child_word()
            automaton = self._automaton(node.label)
            # No children may stand for one empty text node: XML 1.0 reads
            # empty (#PCDATA) content as the empty string.
            if not (
                automaton.accepts(word)
                or (not word and automaton.accepts([TEXT_SYMBOL]))
            ):
                if report(
                    f"children of a {node.label!r} element form "
                    f"{word!r}, not in L({self._dtd.content[node.label]})"
                ):
                    break
            expected = self._dtd.attrs(node.label)
            actual = set(node.attrs)
            missing = expected - actual
            extra = actual - expected
            if missing:
                if report(
                    f"a {node.label!r} element lacks required attributes {sorted(missing)}"
                ):
                    break
            if extra:
                if report(
                    f"a {node.label!r} element has undeclared attributes {sorted(extra)}"
                ):
                    break
        return ValidationReport(ok=not errors, errors=errors)


def conforms(tree: XMLTree, dtd: DTD) -> ValidationReport:
    """One-shot conformance check ``tree |= dtd``.

    >>> from repro.dtd.model import DTD
    >>> from repro.xmltree.builder import element
    >>> from repro.xmltree.model import XMLTree
    >>> d = DTD.build("db", {"db": "(item*)", "item": "EMPTY"})
    >>> bool(conforms(XMLTree(element("db", element("item"))), d))
    True
    >>> bool(conforms(XMLTree(element("db", element("unknown"))), d))
    False
    """
    return TreeValidator(dtd).validate(tree)
