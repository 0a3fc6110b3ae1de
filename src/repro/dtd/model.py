"""The formal DTD model of Definition 2.1.

``DTD(element_types, attributes, content, attrs_of, root)`` mirrors
``D = (E, A, P, R, r)``. Well-formedness (checked by :meth:`DTD.validate`,
which the constructor calls) enforces the paper's standing assumptions:

* ``E`` and ``A`` are disjoint finite sets of names;
* ``P(tau)`` is defined for every ``tau`` in ``E`` and references only
  declared element types;
* ``R(tau) ⊆ A`` for every ``tau`` in ``E``;
* the root ``r`` is in ``E`` and does **not** occur in any content model
  (the paper assumes this without loss of generality; Definition 2.2 makes
  any tree with a nested root-labelled node invalid anyway).

Connectivity of every type to the root is *not* required here — unreachable
types are harmless to all algorithms (they can never occur in a valid tree)
and :func:`repro.dtd.analysis.reachable_types` reports them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Mapping

from repro.errors import InvalidDTDError
from repro.regex.analysis import alphabet
from repro.regex.ast import Regex, TEXT_SYMBOL
from repro.regex.parser import parse_content_model

#: Element-type and attribute names are XML-style names, plus ``~`` which is
#: reserved for internally generated types (the content-model *parser* never
#: produces ``~``, so parsed DTDs cannot collide with generated names; the
#: simplifier additionally checks for collisions in programmatic DTDs).
_NAME_RE = re.compile(r"^[A-Za-z_:~][A-Za-z0-9._:\-~]*$")


def _check_name(name: str, kind: str) -> None:
    if not _NAME_RE.match(name):
        raise InvalidDTDError(f"invalid {kind} name {name!r}")


@dataclass(frozen=True)
class DTD:
    """A DTD ``D = (E, A, P, R, r)``.

    Parameters
    ----------
    element_types:
        The set ``E`` (stored as a sorted tuple for determinism).
    attributes:
        The set ``A``.
    content:
        The mapping ``P`` from element types to content models.
    attrs_of:
        The mapping ``R`` from element types to their attribute sets.
        Types may be omitted; they default to the empty set.
    root:
        The root element type ``r``.

    Use :meth:`DTD.build` for a concise literal syntax, or
    :func:`repro.dtd.parser.parse_dtd` for real DTD text.
    """

    element_types: tuple[str, ...]
    attributes: tuple[str, ...]
    content: Mapping[str, Regex]
    attrs_of: Mapping[str, frozenset[str]]
    root: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_types", tuple(sorted(set(self.element_types))))
        object.__setattr__(self, "attributes", tuple(sorted(set(self.attributes))))
        object.__setattr__(self, "content", dict(self.content))
        normalized = {tau: frozenset(attrs) for tau, attrs in self.attrs_of.items()}
        for tau in self.element_types:
            normalized.setdefault(tau, frozenset())
        object.__setattr__(self, "attrs_of", normalized)
        self.validate()

    @classmethod
    def build(
        cls,
        root: str,
        content: Mapping[str, Regex | str],
        attrs: Mapping[str, Iterable[str]] | None = None,
    ) -> "DTD":
        """Build a DTD from string or AST content models.

        >>> d1 = DTD.build(
        ...     "teachers",
        ...     {
        ...         "teachers": "(teacher, teacher*)",
        ...         "teacher": "(teach, research)",
        ...         "teach": "(subject, subject)",
        ...         "subject": "(#PCDATA)",
        ...         "research": "(#PCDATA)",
        ...     },
        ...     attrs={"teacher": ["name"], "subject": ["taught_by"]},
        ... )
        >>> d1.root
        'teachers'
        """
        parsed = {
            tau: parse_content_model(model) if isinstance(model, str) else model
            for tau, model in content.items()
        }
        attrs = attrs or {}
        attribute_names = sorted({a for names in attrs.values() for a in names})
        return cls(
            element_types=tuple(parsed),
            attributes=tuple(attribute_names),
            content=parsed,
            attrs_of={tau: frozenset(names) for tau, names in attrs.items()},
            root=root,
        )

    def validate(self) -> None:
        """Raise :class:`InvalidDTDError` if Definition 2.1 is violated."""
        types = set(self.element_types)
        attributes = set(self.attributes)
        for name in types:
            _check_name(name, "element type")
        for name in attributes:
            _check_name(name, "attribute")
        overlap = types & attributes
        if overlap:
            raise InvalidDTDError(
                f"element types and attributes must be disjoint: {sorted(overlap)}"
            )
        if self.root not in types:
            raise InvalidDTDError(f"root type {self.root!r} is not a declared element type")
        missing = types - set(self.content)
        if missing:
            raise InvalidDTDError(f"missing content models for {sorted(missing)}")
        extra = set(self.content) - types
        if extra:
            raise InvalidDTDError(f"content models for undeclared types {sorted(extra)}")
        for tau, expr in self.content.items():
            used = alphabet(expr) - {TEXT_SYMBOL}
            unknown = used - types
            if unknown:
                raise InvalidDTDError(
                    f"content model of {tau!r} references undeclared types {sorted(unknown)}"
                )
            if used & {"EMPTY", "ANY"}:
                raise InvalidDTDError(
                    f"content model of {tau!r} references a type named EMPTY or "
                    "ANY, which declaration syntax reads as a keyword"
                )
            if self.root in used:
                raise InvalidDTDError(
                    f"root type {self.root!r} occurs in the content model of {tau!r}; "
                    "Definition 2.1 assumes the root never occurs in content models"
                )
        for tau, names in self.attrs_of.items():
            if tau not in types:
                raise InvalidDTDError(f"attributes declared for undeclared type {tau!r}")
            unknown_attrs = set(names) - attributes
            if unknown_attrs:
                raise InvalidDTDError(
                    f"type {tau!r} uses undeclared attributes {sorted(unknown_attrs)}"
                )

    @cached_property
    def text(self) -> str:
        """The canonical declaration text, root first: the DTD's identity
        (:func:`repro.dtd.serializer.dtd_to_string`), rendered once."""
        from repro.dtd.serializer import render_dtd

        return render_dtd(self)

    def attrs(self, tau: str) -> frozenset[str]:
        """The attribute set ``R(tau)`` (empty for unknown types)."""
        return self.attrs_of.get(tau, frozenset())

    def has_attr(self, tau: str, attr: str) -> bool:
        """Is ``attr`` defined for element type ``tau``?"""
        return attr in self.attrs(tau)

    def attribute_pairs(self) -> list[tuple[str, str]]:
        """All ``(tau, l)`` pairs with ``l ∈ R(tau)``, in deterministic order."""
        return [
            (tau, attr)
            for tau in self.element_types
            for attr in sorted(self.attrs_of.get(tau, frozenset()))
        ]

    def size(self) -> int:
        """A crude size measure |D| used in scaling benchmarks."""
        total = len(self.element_types) + len(self.attributes)
        for expr in self.content.values():
            total += len(str(expr))
        return total
