"""Unit tests for the XML tree model, builder, serializer and parser."""

import pytest

from repro.errors import InvalidTreeError, ParseError
from repro.xmltree.builder import element, text
from repro.xmltree.model import Element, TextNode, XMLTree
from repro.xmltree.parse import parse_xml
from repro.xmltree.serialize import tree_to_string
from repro.xmltree.transform import splice_types


class TestModel:
    def test_node_identity_equality(self):
        # Two structurally equal elements are *different* nodes (key semantics).
        a1 = element("a", k="1")
        a2 = element("a", k="1")
        assert a1 is not a2
        assert a1 != a2 or a1 is a2  # no structural equality defined

    def test_ext_document_order(self):
        tree = XMLTree(
            element("r", element("a", k="1"), element("b"), element("a", k="2"))
        )
        assert [e.attrs["k"] for e in tree.ext("a")] == ["1", "2"]

    def test_ext_attr_is_a_set(self):
        tree = XMLTree(element("r", element("a", k="1"), element("a", k="1")))
        assert tree.attr_values("a", "k") == ["1", "1"]
        assert tree.ext_attr("a", "k") == {"1"}

    def test_child_word_uses_text_sentinel(self):
        node = element("r", element("a"), text("hi"), element("b"))
        assert node.child_word() == ["a", "#PCDATA", "b"]

    def test_size_counts_all_nodes(self):
        tree = XMLTree(element("r", element("a", text("x"))))
        assert tree.size() == 3

    def test_copy_is_deep(self):
        tree = XMLTree(element("r", element("a", k="1")))
        clone = tree.copy()
        clone.ext("a")[0].attrs["k"] = "2"
        assert tree.ext("a")[0].attrs["k"] == "1"

    def test_shared_node_rejected(self):
        shared = element("a")
        with pytest.raises(InvalidTreeError, match="share"):
            XMLTree(element("r", shared, shared))

    def test_non_string_attr_rejected(self):
        node = Element("r")
        node.attrs["k"] = 7  # bypass the builder
        with pytest.raises(InvalidTreeError, match="non-string"):
            XMLTree(node)

    def test_text_node_requires_string(self):
        with pytest.raises(InvalidTreeError):
            TextNode(42)


class TestBuilder:
    def test_string_children_become_text(self):
        node = element("a", "hello")
        assert isinstance(node.children[0], TextNode)
        assert node.children[0].value == "hello"

    def test_attrs_via_kwargs(self):
        assert element("a", k="v").attrs == {"k": "v"}

    def test_invalid_child_rejected(self):
        with pytest.raises(InvalidTreeError):
            element("a", 42)

    def test_non_string_attr_rejected(self):
        with pytest.raises(InvalidTreeError):
            element("a", k=1)


class TestSerializeParse:
    def test_round_trip_structure(self):
        tree = XMLTree(
            element(
                "db",
                element("item", text("desc & more"), id="1", note='say "hi"'),
                element("item", id="2"),
            )
        )
        parsed = parse_xml(tree_to_string(tree))
        assert [e.label for e in parsed.elements()] == ["db", "item", "item"]
        item = parsed.ext("item")[0]
        assert item.attrs == {"id": "1", "note": 'say "hi"'}
        assert item.children[0].value == "desc & more"

    def test_parse_self_closing(self):
        tree = parse_xml("<r><a/><a/></r>")
        assert len(tree.ext("a")) == 2

    def test_parse_skips_prolog_comments_doctype(self):
        tree = parse_xml(
            '<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r EMPTY>]>'
            "<!-- hi --><r/><!-- bye -->"
        )
        assert tree.root.label == "r"

    def test_whitespace_only_text_dropped(self):
        tree = parse_xml("<r>\n  <a/>\n</r>")
        assert all(not isinstance(c, TextNode) for c in tree.root.children)

    def test_whitespace_kept_when_asked(self):
        tree = parse_xml("<r> <a/> </r>", drop_whitespace=False)
        assert any(isinstance(c, TextNode) for c in tree.root.children)

    def test_entities(self):
        tree = parse_xml("<r>&lt;&amp;&gt;&#65;&#x42;&#0065;&#x10FFFF;&#9;</r>")
        assert tree.root.children[0].value == "<&>ABA\U0010ffff\t"

    @pytest.mark.parametrize(
        "bad",
        [
            "<r>",
            "<r></s>",
            "<r><a></r></a>",
            "<r/><r/>",
            '<r a="1" a="2"/>',
            "<r>&#xFFFFFFFF;</r>",
            "<r>&#x110000;</r>",
            "<r>&#amp;</r>",
            "<r>&#0;</r>",
            "<r>&#xD800;</r>",
            "<r>&#xFFFE;</r>",
            '<r a="&#99999999999999999999;"/>',
            pytest.param("<r>&#" + "9" * 5000 + ";</r>", id="5000-digit-reference"),
            "<r>&#x;</r>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_xml(bad)


class TestSplice:
    def test_splice_preserves_order(self):
        tree = XMLTree(
            element(
                "r",
                element("~1", element("a"), element("~1", element("b"))),
                element("c"),
            )
        )
        spliced = splice_types(tree, {"~1"})
        assert [e.label for e in spliced.elements()] == ["r", "a", "b", "c"]

    def test_splice_root_rejected(self):
        with pytest.raises(InvalidTreeError):
            splice_types(XMLTree(element("r")), {"r"})

    def test_splice_with_attrs_rejected(self):
        tree = XMLTree(element("r", element("x", k="1")))
        with pytest.raises(InvalidTreeError, match="attributes"):
            splice_types(tree, {"x"})

    def test_splice_keeps_text(self):
        tree = XMLTree(element("r", element("~1", text("hello"))))
        spliced = splice_types(tree, {"~1"})
        assert spliced.root.children[0].value == "hello"
