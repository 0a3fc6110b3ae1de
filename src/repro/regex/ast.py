"""AST for DTD content-model regular expressions.

The grammar follows Definition 2.1 of Fan & Libkin:

    alpha ::= S | tau' | epsilon | alpha "|" alpha | alpha "," alpha | alpha*

with the two standard DTD conveniences ``alpha+`` and ``alpha?`` included as
first-class nodes (they desugar to ``alpha, alpha*`` and ``alpha | epsilon``
during DTD simplification).

All nodes are immutable and hashable; concatenation and union are n-ary
(with at least two children) to keep parsed trees flat and readable. The
string type ``S`` of the paper is represented by :class:`Text` and appears
in word-level APIs as the sentinel symbol :data:`TEXT_SYMBOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sentinel symbol used for the string type ``S`` in words over the content
#: model alphabet. Element-type names never collide with it because ``#`` is
#: not a valid name character.
TEXT_SYMBOL = "#PCDATA"


class Regex:
    """Base class of all content-model expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - exercised via subclasses
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Epsilon(Regex):
    """The empty word (``EMPTY`` in DTD syntax)."""

    def __str__(self) -> str:
        return "EMPTY"


@dataclass(frozen=True, slots=True)
class Text(Regex):
    """The string type ``S`` (``#PCDATA`` in DTD syntax)."""

    def __str__(self) -> str:
        return TEXT_SYMBOL


@dataclass(frozen=True, slots=True)
class Name(Regex):
    """A reference to an element type."""

    symbol: str

    def __str__(self) -> str:
        return self.symbol


def _render(root: Regex) -> str:
    """Print a compound expression with an explicit stack of pending
    pieces (strings and unexpanded nodes), so models nested up to the
    parser's ``MAX_NESTING`` print at the default recursion limit.
    Compound children are parenthesized for unambiguous printing."""
    out: list[str] = []
    stack: list[Regex | str] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if isinstance(node, (Concat, Union)):
            separator, items = node._separator, node.items
        elif isinstance(node, (Star, Plus, Optional)):
            stack.append(node._suffix)
            separator, items = "", (node.item,)
        else:
            out.append(str(node))
            continue
        for index in range(len(items) - 1, -1, -1):
            item = items[index]
            if isinstance(item, (Concat, Union)):
                stack += (")", item, "(")
            else:
                stack.append(item)
            if index:
                stack.append(separator)
    return "".join(out)


def _repr(root: Regex) -> str:
    """The dataclass ``repr`` of a compound expression, e.g.
    ``Star(item=Name(symbol='a'))``, built with an explicit stack of
    pending pieces for the same reason as :func:`_render`."""
    out: list[str] = []
    stack: list[Regex | str] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, (Concat, Union)):
            items = node.items
            stack.append("))")
            for index in range(len(items) - 1, -1, -1):
                stack.append(items[index])
                if index:
                    stack.append(", ")
            stack.append(f"{type(node).__qualname__}(items=(")
        elif isinstance(node, (Star, Plus, Optional)):
            stack += (")", node.item, f"{type(node).__qualname__}(item=")
        else:
            out.append(repr(node))
    return "".join(out)


def _equal(left: Regex, right: object) -> bool:
    """Structural equality of two compound expressions, walked with an
    explicit stack of pending pairs for the same reason as :func:`_render`."""
    if right.__class__ is not left.__class__:
        return NotImplemented
    pending = [(left, right)]
    while pending:
        mine, theirs = pending.pop()
        if mine is theirs:
            continue
        if mine.__class__ is not theirs.__class__:
            return False
        if isinstance(mine, (Concat, Union)):
            if len(mine.items) != len(theirs.items):
                return False
            pending += zip(mine.items, theirs.items)
        elif isinstance(mine, (Star, Plus, Optional)):
            pending.append((mine.item, theirs.item))
        elif mine != theirs:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Concat(Regex):
    """Ordered concatenation ``alpha1, alpha2, ...`` (two or more items)."""

    items: tuple[Regex, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("Concat requires at least two items")

    _separator = ", "
    __str__ = _render
    __repr__ = _repr
    __eq__ = _equal


@dataclass(frozen=True, slots=True)
class Union(Regex):
    """Choice ``alpha1 | alpha2 | ...`` (two or more items)."""

    items: tuple[Regex, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("Union requires at least two items")

    _separator = " | "
    __str__ = _render
    __repr__ = _repr
    __eq__ = _equal


@dataclass(frozen=True, slots=True)
class Star(Regex):
    """Kleene closure ``alpha*``."""

    item: Regex

    _suffix = "*"
    __str__ = _render
    __repr__ = _repr
    __eq__ = _equal


@dataclass(frozen=True, slots=True)
class Plus(Regex):
    """One-or-more ``alpha+`` (sugar for ``alpha, alpha*``)."""

    item: Regex

    _suffix = "+"
    __str__ = _render
    __repr__ = _repr
    __eq__ = _equal


@dataclass(frozen=True, slots=True)
class Optional(Regex):
    """Zero-or-one ``alpha?`` (sugar for ``alpha | EMPTY``)."""

    item: Regex

    _suffix = "?"
    __str__ = _render
    __repr__ = _repr
    __eq__ = _equal


#: Shared instance of the empty-word expression.
EPSILON = Epsilon()

#: Shared instance of the string-type expression.
TEXT = Text()


def concat(*items: Regex) -> Regex:
    """Build a concatenation, collapsing the 0- and 1-item cases.

    ``concat()`` is :data:`EPSILON`; ``concat(a)`` is ``a``. Useful when
    assembling expressions programmatically.
    """
    if not items:
        return EPSILON
    if len(items) == 1:
        return items[0]
    return Concat(tuple(items))


def union(*items: Regex) -> Regex:
    """Build a union, collapsing the 1-item case.

    ``union(a)`` is ``a``; at least one item is required.
    """
    if not items:
        raise ValueError("union requires at least one item")
    if len(items) == 1:
        return items[0]
    return Union(tuple(items))
