"""Conformance checking tests (Definition 2.2)."""

import json
from pathlib import Path

import pytest

from repro.checkers.consistency import check_consistency
from repro.constraints.parser import parse_constraints
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.workloads.examples import figure1_tree
from repro.xmltree.builder import element, text
from repro.xmltree.model import XMLTree
from repro.xmltree.parse import parse_xml
from repro.xmltree.serialize import tree_to_string
from repro.xmltree.validate import TreeValidator, conforms

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json"


def _bibliography_spec() -> tuple[str, str]:
    specs = json.loads(CORPUS.read_text())["cold_cli"]
    spec = next(s for s in specs if s["name"] == "bibliography")
    return spec["dtd"], spec["constraints"]


class TestConforms:
    def test_figure1_conforms_to_d1(self, d1):
        assert conforms(figure1_tree(), d1)

    def test_wrong_root_label(self, d1):
        tree = XMLTree(element("teacher"))
        report = conforms(tree, d1)
        assert not report
        assert any("root" in error for error in report.errors)

    def test_undeclared_element_type(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"})
        report = conforms(XMLTree(element("r", element("ghost"))), d)
        assert not report
        assert any("ghost" in e for e in report.errors)

    def test_children_word_checked(self, d1):
        # teach must have exactly two subjects.
        tree = XMLTree(
            element(
                "teachers",
                element(
                    "teacher",
                    element("teach",
                            element("subject", text("x"), taught_by="t")),
                    element("research", text("r")),
                    name="n",
                ),
            )
        )
        report = conforms(tree, d1)
        assert not report
        assert any("teach" in e for e in report.errors)

    def test_missing_attribute(self, d1):
        tree = figure1_tree()
        del tree.ext("teacher")[0].attrs["name"]
        report = conforms(tree, d1)
        assert not report
        assert any("name" in e for e in report.errors)

    def test_extra_attribute(self, d1):
        tree = figure1_tree()
        tree.ext("research")[0].attrs["bogus"] = "x"
        report = conforms(tree, d1)
        assert not report
        assert any("bogus" in e for e in report.errors)

    def test_text_where_element_expected(self):
        d = DTD.build("r", {"r": "(a)", "a": "EMPTY"})
        report = conforms(XMLTree(element("r", text("oops"))), d)
        assert not report

    def test_empty_content_allows_no_children(self):
        d = DTD.build("r", {"r": "EMPTY"})
        assert conforms(XMLTree(element("r")), d)
        assert not conforms(XMLTree(element("r", text("x"))), d)

    def test_max_errors_caps_reporting(self):
        d = DTD.build("r", {"r": "(a*)", "a": "EMPTY"})
        bad_children = [element("ghost") for _ in range(50)]
        report = TreeValidator(d).validate(
            XMLTree(element("r", *bad_children)), max_errors=5
        )
        assert len(report.errors) == 5

    def test_validator_reuse(self, d1):
        validator = TreeValidator(d1)
        assert validator.validate(figure1_tree())
        assert validator.validate(figure1_tree())
        assert validator.dtd is d1


class TestEmptyTextRoundTrip:
    """A witness's empty text nodes serialize to ``<t></t>``; parsing that
    back must still conform (XML 1.0: empty ``(#PCDATA)`` content is the
    empty string)."""

    @pytest.mark.parametrize(
        "dtd_text, constraints_text",
        [
            _bibliography_spec(),
            ("<!ELEMENT r (t)> <!ELEMENT t (#PCDATA)>", ""),
        ],
        ids=["bibliography", "r_t_pcdata"],
    )
    def test_witness_round_trips(self, dtd_text, constraints_text):
        dtd = parse_dtd(dtd_text)
        result = check_consistency(dtd, parse_constraints(constraints_text))
        assert result.consistent
        serialized = tree_to_string(result.witness)
        assert "></" in serialized  # some text node really is empty
        report = conforms(parse_xml(serialized), dtd)
        assert report, report.errors

    def test_empty_text_content_forms(self):
        d = DTD.build("r", {"r": "(t)", "t": "(#PCDATA)"})
        for markup in ("<r><t></t></r>", "<r><t/></r>", "<r><t>x</t></r>"):
            assert conforms(parse_xml(markup), d), markup
        # Only an absent child word is read as empty text: a missing
        # element is still an error.
        assert not conforms(parse_xml("<r></r>"), d)
        assert not conforms(parse_xml("<r><t><r/></t></r>"), d)
