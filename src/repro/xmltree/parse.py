"""A minimal XML parser producing :class:`~repro.xmltree.model.XMLTree`.

Supports elements, attributes, character data with the five predefined
entities, comments, processing instructions, an XML declaration and a
DOCTYPE (skipped). This is intentionally small — the offline environment
ships no XML library, and the paper's model needs nothing more. It is not
a general-purpose XML 1.0 processor (no namespaces, CDATA sections or
external entities).

Whitespace-only text between elements is dropped by default, since the
formal model only has text nodes where the DTD puts the string type.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.xmltree.model import Element, TextNode, XMLTree

_NAME = r"[A-Za-z_:][A-Za-z0-9._:\-]*"
_NAME_RE = re.compile(_NAME)
_ATTR_RE = re.compile(rf"\s*({_NAME})\s*=\s*(\"[^\"]*\"|'[^']*')")
_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&apos;": "'",
}


#: A numeric character reference, at most 7 significant digits.
_CHAR_REF_RE = re.compile(r"&#(?:0*([0-9]{1,7})|[xX]0*([0-9A-Fa-f]{1,7}));")
#: XML 1.0's ``Char`` production.
_XML_CHAR_RE = re.compile("[\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _unescape(value: str) -> str:
    def replace(match: re.Match[str]) -> str:
        entity = match.group(0)
        if entity in _ENTITIES:
            return _ENTITIES[entity]
        reference = _CHAR_REF_RE.fullmatch(entity)
        if reference is None:
            raise ParseError(f"unknown entity {entity!r}")
        decimal, hexadecimal = reference.groups()
        code = int(decimal) if decimal is not None else int(hexadecimal, 16)
        if code > 0x10FFFF or not _XML_CHAR_RE.fullmatch(chr(code)):
            raise ParseError(f"character reference {entity!r} names no XML character")
        return chr(code)

    return re.sub(r"&#?[A-Za-z0-9]+;", replace, value)


class _XMLParser:
    def __init__(self, source: str, drop_whitespace: bool):
        self._source = source
        self._pos = 0
        self._drop_whitespace = drop_whitespace

    def parse(self) -> XMLTree:
        self._skip_misc()
        root = self._parse_element()
        self._skip_misc()
        if self._pos != len(self._source):
            raise ParseError("content after document element", self._pos)
        return XMLTree(root)

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, PIs, XML declaration and DOCTYPE."""
        while self._pos < len(self._source):
            rest = self._source[self._pos:]
            if rest[:1].isspace():
                self._pos += 1
            elif rest.startswith("<!--"):
                end = self._source.find("-->", self._pos + 4)
                if end < 0:
                    raise ParseError("unterminated comment", self._pos)
                self._pos = end + 3
            elif rest.startswith("<?"):
                end = self._source.find("?>", self._pos + 2)
                if end < 0:
                    raise ParseError("unterminated processing instruction", self._pos)
                self._pos = end + 2
            elif rest.startswith("<!DOCTYPE"):
                depth = 0
                index = self._pos
                while index < len(self._source):
                    char = self._source[index]
                    if char == "<":
                        depth += 1
                    elif char == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    index += 1
                if depth != 0:
                    raise ParseError("unterminated DOCTYPE", self._pos)
                self._pos = index + 1
            else:
                return

    def _parse_element(self) -> Element:
        if not self._source.startswith("<", self._pos):
            raise ParseError("expected element start tag", self._pos)
        name_match = _NAME_RE.match(self._source, self._pos + 1)
        if name_match is None:
            raise ParseError("invalid element name", self._pos + 1)
        label = name_match.group(0)
        cursor = name_match.end()
        attrs: dict[str, str] = {}
        while True:
            attr_match = _ATTR_RE.match(self._source, cursor)
            if attr_match is None:
                break
            name = attr_match.group(1)
            if name in attrs:
                raise ParseError(f"duplicate attribute {name!r}", cursor)
            attrs[name] = _unescape(attr_match.group(2)[1:-1])
            cursor = attr_match.end()
        while cursor < len(self._source) and self._source[cursor].isspace():
            cursor += 1
        if self._source.startswith("/>", cursor):
            self._pos = cursor + 2
            return Element(label, attrs=attrs)
        if not self._source.startswith(">", cursor):
            raise ParseError(f"malformed start tag for {label!r}", cursor)
        self._pos = cursor + 1
        children = self._parse_content(label)
        return Element(label, children=children, attrs=attrs)

    def _parse_content(self, label: str) -> list[Element | TextNode]:
        children: list[Element | TextNode] = []
        buffer: list[str] = []

        def flush_text() -> None:
            if not buffer:
                return
            value = _unescape("".join(buffer))
            buffer.clear()
            if self._drop_whitespace and not value.strip():
                return
            children.append(TextNode(value))

        while True:
            if self._pos >= len(self._source):
                raise ParseError(f"unterminated element {label!r}", self._pos)
            if self._source.startswith("</", self._pos):
                flush_text()
                end_match = _NAME_RE.match(self._source, self._pos + 2)
                if end_match is None or end_match.group(0) != label:
                    raise ParseError(f"mismatched end tag for {label!r}", self._pos)
                cursor = end_match.end()
                while cursor < len(self._source) and self._source[cursor].isspace():
                    cursor += 1
                if not self._source.startswith(">", cursor):
                    raise ParseError(f"malformed end tag for {label!r}", cursor)
                self._pos = cursor + 1
                return children
            if self._source.startswith("<!--", self._pos):
                end = self._source.find("-->", self._pos + 4)
                if end < 0:
                    raise ParseError("unterminated comment", self._pos)
                self._pos = end + 3
                continue
            if self._source.startswith("<", self._pos):
                flush_text()
                children.append(self._parse_element())
                continue
            buffer.append(self._source[self._pos])
            self._pos += 1


def parse_xml(source: str, drop_whitespace: bool = True) -> XMLTree:
    """Parse XML markup into an :class:`XMLTree`.

    >>> t = parse_xml('<db><item id="1"/><item id="2"/></db>')
    >>> len(t.ext("item"))
    2
    """
    return _XMLParser(source, drop_whitespace).parse()
