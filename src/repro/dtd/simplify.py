"""DTD simplification: the binary normal form of Section 4.1.

A *simple* DTD restricts every production to one of the forms

    tau -> tau1, tau2     (SeqRule)
    tau -> tau1 | tau2    (AltRule)
    tau -> tau1           (OneRule; tau1 may also be the string type S)
    tau -> S              (OneRule with the text symbol)
    tau -> epsilon        (EpsRule)

obtained from an arbitrary DTD by introducing fresh element types for
compound subexpressions; Kleene stars become right recursion
(``tau* ==> t -> eps | (tau, t)``), exactly as in the paper. Fresh types
never carry attributes, so for every original type ``tau`` and attribute
``l`` the quantities ``|ext(tau)|`` and ``ext(tau.l)`` are preserved between
the original and the simplified DTD (Lemma 4.3); tests exercise this via
the tree expansion/contraction pair in :mod:`repro.xmltree.transform`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtd.model import DTD
from repro.regex.ast import (
    EPSILON,
    TEXT_SYMBOL,
    Concat,
    Epsilon,
    Name,
    Optional,
    Plus,
    Regex,
    Star,
    Text,
    Union,
)


class SimpleRule:
    """Base class for the four production forms of a simple DTD."""

    __slots__ = ()

    def symbols(self) -> tuple[str, ...]:
        """Symbols on the right-hand side, in slot order."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class EpsRule(SimpleRule):
    """``tau -> epsilon``."""

    def symbols(self) -> tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        return "EMPTY"


@dataclass(frozen=True, slots=True)
class OneRule(SimpleRule):
    """``tau -> a`` for a single symbol ``a`` (element type or text)."""

    symbol: str

    def symbols(self) -> tuple[str, ...]:
        return (self.symbol,)

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True, slots=True)
class SeqRule(SimpleRule):
    """``tau -> a, b``: every ``tau`` element has exactly these two children."""

    first: str
    second: str

    def symbols(self) -> tuple[str, ...]:
        return (self.first, self.second)

    def __str__(self) -> str:
        return f"{self.first}, {self.second}"


@dataclass(frozen=True, slots=True)
class AltRule(SimpleRule):
    """``tau -> a | b``: every ``tau`` element has one child, of either type."""

    left: str
    right: str

    def symbols(self) -> tuple[str, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} | {self.right}"


@dataclass(frozen=True)
class SimpleDTD:
    """A simplified DTD ``D_N`` together with its provenance.

    ``types`` lists all element types (original first, then generated);
    ``rules`` maps each type to its :class:`SimpleRule`; attributes are
    inherited from the original DTD for original types and empty for
    generated ones.
    """

    original: DTD
    types: tuple[str, ...]
    rules: dict[str, SimpleRule]
    root: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_original_types", frozenset(self.original.element_types)
        )
        object.__setattr__(
            self,
            "_occurrences",
            tuple(
                (slot, symbol, tau)
                for tau in self.types
                for slot, symbol in enumerate(self.rules[tau].symbols(), start=1)
            ),
        )

    @property
    def original_types(self) -> frozenset[str]:
        """The element types of the original DTD."""
        return self._original_types  # type: ignore[attr-defined]

    def is_original(self, tau: str) -> bool:
        """Was ``tau`` declared in the original DTD (vs generated)?"""
        return tau in self.original_types

    def attrs(self, tau: str) -> frozenset[str]:
        """``R_N(tau)``: original attributes, empty for generated types."""
        if self.is_original(tau):
            return self.original.attrs(tau)
        return frozenset()

    def symbols(self) -> tuple[str, ...]:
        """All node labels: element types plus the text symbol."""
        return self.types + (TEXT_SYMBOL,)

    def occurrences(self) -> tuple[tuple[int, str, str], ...]:
        """All occurrence sites ``(slot, child_symbol, parent_type)``.

        Slots are 1-based and correspond to the occurrence variables
        ``x^i_{a,tau}`` of the paper's encoding.  Computed once: the
        cached encoding block's simplified DTD serves every witness.
        """
        return self._occurrences  # type: ignore[attr-defined]

    def to_dtd(self) -> DTD:
        """View the simple DTD as an ordinary :class:`DTD`.

        Useful for validating trees against ``D_N`` with the standard
        validator (Lemma 4.3 tests).
        """
        content: dict[str, Regex] = {}
        for tau in self.types:
            rule = self.rules[tau]
            if isinstance(rule, EpsRule):
                content[tau] = EPSILON
            elif isinstance(rule, OneRule):
                content[tau] = _symbol_to_regex(rule.symbol)
            elif isinstance(rule, SeqRule):
                content[tau] = Concat((_symbol_to_regex(rule.first),
                                       _symbol_to_regex(rule.second)))
            elif isinstance(rule, AltRule):
                content[tau] = Union((_symbol_to_regex(rule.left),
                                      _symbol_to_regex(rule.right)))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rule {rule!r}")
        attrs = {tau: self.attrs(tau) for tau in self.types}
        return DTD(
            element_types=self.types,
            attributes=self.original.attributes,
            content=content,
            attrs_of=attrs,
            root=self.root,
        )


def _symbol_to_regex(symbol: str) -> Regex:
    from repro.regex.ast import TEXT

    return TEXT if symbol == TEXT_SYMBOL else Name(symbol)


class _Simplifier:
    """Worklist-driven rewriting of content models into simple rules."""

    def __init__(self, dtd: DTD):
        self._dtd = dtd
        self._used: set[str] = set(dtd.element_types)
        self._counter = 0
        self._rules: dict[str, SimpleRule] = {}
        self._order: list[str] = list(dtd.element_types)
        self._pending: list[tuple[str, Regex]] = []
        self._eps_type: str | None = None

    def run(self) -> SimpleDTD:
        for tau in self._dtd.element_types:
            self._pending.append((tau, self._dtd.content[tau]))
        while self._pending:
            tau, expr = self._pending.pop()
            self._rules[tau] = self._rewrite(tau, expr)
        return SimpleDTD(
            original=self._dtd,
            types=tuple(self._order),
            rules=self._rules,
            root=self._dtd.root,
        )

    def _fresh(self, expr: Regex) -> str:
        """Allocate a fresh element type whose rule derives ``expr``."""
        while True:
            self._counter += 1
            name = f"~{self._counter}"
            if name not in self._used:
                break
        self._used.add(name)
        self._order.append(name)
        self._pending.append((name, expr))
        return name

    def _eps_symbol(self) -> str:
        """The shared fresh type deriving only the empty word."""
        if self._eps_type is None:
            while True:
                candidate = "~eps" if "~eps" not in self._used else f"~eps{self._counter}"
                if candidate not in self._used:
                    break
                self._counter += 1
            self._eps_type = candidate
            self._used.add(candidate)
            self._order.append(candidate)
            self._rules[candidate] = EpsRule()
        return self._eps_type

    def _symbol_of(self, expr: Regex) -> str:
        """A symbol deriving exactly ``L(expr)``, fresh if ``expr`` is compound."""
        if isinstance(expr, Name):
            return expr.symbol
        if isinstance(expr, Text):
            return TEXT_SYMBOL
        if isinstance(expr, Epsilon):
            return self._eps_symbol()
        if isinstance(expr, Star):
            # The loop type t -> eps | (item, t) derives L(item*) exactly;
            # skipping the wrapper matches the paper's D_N1 (three fresh
            # types for `teacher, teacher*`, not four).
            return self._fresh_star(expr.item)
        return self._fresh(expr)

    def _rewrite(self, tau: str, expr: Regex) -> SimpleRule:
        if isinstance(expr, Epsilon):
            return EpsRule()
        if isinstance(expr, Text):
            return OneRule(TEXT_SYMBOL)
        if isinstance(expr, Name):
            return OneRule(expr.symbol)
        if isinstance(expr, Optional):
            return self._rewrite(tau, Union((expr.item, EPSILON)))
        if isinstance(expr, Plus):
            return self._rewrite(tau, Concat((expr.item, Star(expr.item))))
        if isinstance(expr, Concat):
            head, tail = expr.items[0], expr.items[1:]
            rest: Regex = tail[0] if len(tail) == 1 else Concat(tail)
            return SeqRule(self._symbol_of(head), self._symbol_of(rest))
        if isinstance(expr, Union):
            head, tail = expr.items[0], expr.items[1:]
            rest = tail[0] if len(tail) == 1 else Union(tail)
            return AltRule(self._symbol_of(head), self._symbol_of(rest))
        if isinstance(expr, Star):
            # tau* ==> t -> eps | (item, t): right recursion, as in the paper.
            loop = self._fresh_star(expr.item)
            return OneRule(loop)
        raise TypeError(f"unknown regex node {expr!r}")

    def _fresh_star(self, item: Regex) -> str:
        """Fresh type ``t`` with ``t -> eps | (item, t)``."""
        while True:
            self._counter += 1
            name = f"~{self._counter}"
            if name not in self._used:
                break
        self._used.add(name)
        self._order.append(name)
        body = Union((EPSILON, Concat((item, Name(name)))))
        self._pending.append((name, body))
        return name


def simplify_dtd(dtd: DTD) -> SimpleDTD:
    """Simplify ``dtd`` into binary normal form (Section 4.1, Lemma 4.3).

    >>> from repro.dtd.model import DTD
    >>> d = DTD.build("r", {"r": "(a, b)*", "a": "EMPTY", "b": "EMPTY"})
    >>> simple = simplify_dtd(d)
    >>> sorted(simple.original_types)
    ['a', 'b', 'r']
    >>> all(len(rule.symbols()) <= 2 for rule in simple.rules.values())
    True
    """
    return _Simplifier(dtd).run()
