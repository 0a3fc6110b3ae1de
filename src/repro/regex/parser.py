"""Parser for DTD content-model syntax.

Accepts the concrete syntax used in ``<!ELEMENT ...>`` declarations:

* ``EMPTY`` — the empty word;
* ``(#PCDATA)`` or ``#PCDATA`` — string content;
* element-type names (XML name characters: letters, digits, ``.-_:``);
* ``,`` (sequence), ``|`` (choice), postfix ``*``, ``+``, ``?``;
* parentheses for grouping.

Mixed-content declarations such as ``(#PCDATA | a | b)*`` are parsed as
ordinary expressions (``#PCDATA`` is just the :class:`~repro.regex.ast.Text`
leaf). ``ANY`` is rejected: the paper's model has no counterpart for it.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.regex.ast import (
    EPSILON,
    TEXT,
    Concat,
    Name,
    Optional,
    Plus,
    Regex,
    Star,
    Union,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<pcdata>\#PCDATA)
  | (?P<name>[A-Za-z_:][A-Za-z0-9._:\-]*)
  | (?P<punct>[(),|*+?])
    """,
    re.VERBOSE,
)

#: Token sentinel appended at end of input.
_END = ("end", "", -1)

#: Deepest parenthesis nesting a content model may use.  The parser
#: recurses once per group, so a deeper model is refused with a
#: :class:`ParseError` before it can exhaust the interpreter's stack.
MAX_NESTING = 256


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split ``text`` into ``(kind, value, position)`` tokens."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} in content model", pos)
        if match.lastgroup != "ws":
            kind = match.lastgroup or "punct"
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(_END)
    return tokens


class _Parser:
    """Recursive-descent parser over the token list.

    Grammar (standard DTD content-particle structure, with the usual
    restriction that ``,`` and ``|`` may not be mixed at one level):

        expr    := seq
        seq     := choice ("," choice)*
        choice  := postfix ("|" postfix)*
        postfix := atom ("*" | "+" | "?")?
        atom    := NAME | #PCDATA | EMPTY | "(" expr ")"
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._index]

    def _advance(self) -> tuple[str, str, int]:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, value: str) -> None:
        kind, got, pos = self._peek()
        if kind == "punct" and got == value:
            self._advance()
            return
        raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", pos)

    def parse(self) -> Regex:
        expr = self._parse_level()
        kind, value, pos = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return expr

    def _parse_level(self) -> Regex:
        """Parse one level, allowing either ``,`` or ``|`` but not both."""
        first = self._parse_postfix()
        kind, value, _ = self._peek()
        if kind == "punct" and value in {",", "|"}:
            separator = value
            items = [first]
            while True:
                kind, value, pos = self._peek()
                if kind != "punct" or value not in {",", "|"}:
                    break
                if value != separator:
                    raise ParseError(
                        "cannot mix ',' and '|' at the same level; use parentheses", pos
                    )
                self._advance()
                items.append(self._parse_postfix())
            if separator == ",":
                return Concat(tuple(items))
            return Union(tuple(items))
        return first

    def _parse_postfix(self) -> Regex:
        expr = self._parse_atom()
        while True:
            kind, value, _ = self._peek()
            if kind == "punct" and value in {"*", "+", "?"}:
                self._advance()
                if value == "*":
                    expr = Star(expr)
                elif value == "+":
                    expr = Plus(expr)
                else:
                    expr = Optional(expr)
                continue
            return expr

    def _parse_atom(self) -> Regex:
        kind, value, pos = self._advance()
        if kind == "pcdata":
            return TEXT
        if kind == "name":
            if value == "EMPTY":
                return EPSILON
            if value == "ANY":
                raise ParseError("ANY content is not supported by the paper's model", pos)
            return Name(value)
        if kind == "punct" and value == "(":
            if self._depth == MAX_NESTING:
                raise ParseError(
                    f"content model nests deeper than {MAX_NESTING} groups", pos
                )
            self._depth += 1
            expr = self._parse_level()
            self._expect(")")
            self._depth -= 1
            return expr
        raise ParseError(f"unexpected token {value or 'end of input'!r}", pos)


def parse_content_model(text: str) -> Regex:
    """Parse a DTD content model into a :class:`~repro.regex.ast.Regex`.

    >>> str(parse_content_model("(teach, research)"))
    'teach, research'
    >>> str(parse_content_model("(#PCDATA)"))
    '#PCDATA'
    >>> str(parse_content_model("EMPTY"))
    'EMPTY'
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty content model")
    return _Parser(_tokenize(stripped)).parse()
