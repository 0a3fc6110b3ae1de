"""Node-labelled ordered trees (Definition 2.2).

The paper's ``T = (V, lab, ele, att, val, root)`` maps onto:

* ``V`` — the set of :class:`Element` and :class:`TextNode` objects (the
  attribute nodes of the formal model are folded into each element's
  ``attrs`` mapping: ``att(v, l)`` is the entry ``v.attrs[l]`` and ``val``
  of that attribute node is the mapped string);
* ``lab`` — :attr:`Element.label` / the text sentinel for text nodes;
* ``ele`` — :attr:`Element.children` (ordered);
* ``root`` — :attr:`XMLTree.root`.

Elements use identity equality: two distinct nodes with equal labels and
values are different nodes, exactly as required by the key semantics
(``x = y`` iff same node).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import InvalidTreeError
from repro.regex.ast import TEXT_SYMBOL


class TextNode:
    """A text node; ``lab`` is ``S`` and ``val`` is :attr:`value`."""

    __slots__ = ("value",)

    def __init__(self, value: str = ""):
        if not isinstance(value, str):
            raise InvalidTreeError(f"text value must be a string, got {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        return f"TextNode({self.value!r})"


class Element:
    """An element node with ordered children and string-valued attributes."""

    __slots__ = ("label", "attrs", "children")

    def __init__(
        self,
        label: str,
        children: list["Element | TextNode"] | None = None,
        attrs: dict[str, str] | None = None,
    ):
        if not isinstance(label, str) or not label:
            raise InvalidTreeError(f"element label must be a non-empty string, got {label!r}")
        self.label = label
        self.children = list(children) if children else []
        self.attrs = dict(attrs) if attrs else {}

    def child_word(self) -> list[str]:
        """The label sequence of the children (text nodes appear as ``S``)."""
        word = []
        for child in self.children:
            if isinstance(child, TextNode):
                word.append(TEXT_SYMBOL)
            else:
                word.append(child.label)
        return word

    def __repr__(self) -> str:
        return f"Element({self.label!r}, children={len(self.children)}, attrs={self.attrs!r})"


class XMLTree:
    """A rooted XML tree.

    >>> from repro.xmltree.builder import element
    >>> t = XMLTree(element("db", element("item", id="1")))
    >>> [e.label for e in t.elements()]
    ['db', 'item']
    >>> t.attr_values("item", "id")
    ['1']
    """

    __slots__ = ("root",)

    def __init__(self, root: Element):
        if not isinstance(root, Element):
            raise InvalidTreeError("tree root must be an Element")
        self.root = root
        self.validate_structure()

    def validate_structure(self) -> None:
        """Check tree-ness: no node object occurs twice (no sharing, no cycles).

        Definition 2.2 requires a unique parent-child path from the root to
        every node; with object identity this amounts to every node object
        appearing exactly once in the traversal.
        """
        seen: set[int] = set()
        stack: list[Element | TextNode] = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                raise InvalidTreeError(
                    f"node {node!r} occurs more than once; XML trees do not share nodes"
                )
            seen.add(id(node))
            if isinstance(node, Element):
                for attr, value in node.attrs.items():
                    if not isinstance(value, str):
                        raise InvalidTreeError(
                            f"attribute {attr!r} of {node.label!r} has non-string value {value!r}"
                        )
                stack.extend(node.children)

    def nodes(self) -> Iterator[Element | TextNode]:
        """All nodes in document order (pre-order)."""
        stack: list[Element | TextNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node.children))

    def elements(self) -> Iterator[Element]:
        """All element nodes in document order."""
        for node in self.nodes():
            if isinstance(node, Element):
                yield node

    def ext(self, label: str) -> list[Element]:
        """``ext(tau)``: all elements labelled ``label``, in document order."""
        return [node for node in self.elements() if node.label == label]

    def by_label(self) -> dict[str, list[Element]]:
        """Every ``ext(tau)`` from one walk: label -> elements in document order.

        A snapshot, not a view: the tree is mutable, so a caller that
        changes its shape builds a new one.
        """
        index: dict[str, list[Element]] = {}
        for node in self.elements():
            index.setdefault(node.label, []).append(node)
        return index

    def attr_values(self, label: str, attr: str) -> list[str]:
        """The multiset ``[x.l for x in ext(tau)]`` in document order.

        Only elements that actually carry the attribute contribute (in a
        DTD-conformant tree every ``tau`` element carries all of ``R(tau)``).
        """
        return [
            node.attrs[attr]
            for node in self.ext(label)
            if attr in node.attrs
        ]

    def ext_attr(self, label: str, attr: str) -> set[str]:
        """``ext(tau.l)``: the *set* of ``l``-attribute values of ``tau`` elements."""
        return set(self.attr_values(label, attr))

    def size(self) -> int:
        """Total number of element and text nodes."""
        return sum(1 for _ in self.nodes())

    def copy(self) -> "XMLTree":
        """Deep copy (fresh node objects; iterative, depth-safe)."""
        new_root = Element(self.root.label, attrs=dict(self.root.attrs))
        stack: list[tuple[Element | TextNode, Element]] = [
            (child, new_root) for child in reversed(self.root.children)
        ]
        while stack:
            node, target = stack.pop()
            if isinstance(node, TextNode):
                target.children.append(TextNode(node.value))
                continue
            cloned = Element(node.label, attrs=dict(node.attrs))
            target.children.append(cloned)
            for child in reversed(node.children):
                stack.append((child, cloned))
        return XMLTree(new_root)
