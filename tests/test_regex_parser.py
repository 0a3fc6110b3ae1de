"""Unit tests for the content-model parser."""

import random
import subprocess
import sys

import pytest

from repro.dtd.parser import parse_dtd
from repro.errors import ParseError
from repro.regex.ast import (
    EPSILON,
    TEXT,
    Concat,
    Name,
    Optional,
    Plus,
    Star,
    Union,
)
from repro.regex.parser import MAX_NESTING, parse_content_model


class TestBasicForms:
    def test_single_name(self):
        assert parse_content_model("teacher") == Name("teacher")

    def test_parenthesized_name(self):
        assert parse_content_model("(teacher)") == Name("teacher")

    def test_empty_keyword(self):
        assert parse_content_model("EMPTY") == EPSILON

    def test_pcdata(self):
        assert parse_content_model("(#PCDATA)") == TEXT
        assert parse_content_model("#PCDATA") == TEXT

    def test_sequence(self):
        assert parse_content_model("(a, b, c)") == Concat(
            (Name("a"), Name("b"), Name("c"))
        )

    def test_choice(self):
        assert parse_content_model("(a | b | c)") == Union(
            (Name("a"), Name("b"), Name("c"))
        )

    def test_postfix_operators(self):
        assert parse_content_model("(a)*") == Star(Name("a"))
        assert parse_content_model("a+") == Plus(Name("a"))
        assert parse_content_model("a?") == Optional(Name("a"))

    def test_stacked_postfix(self):
        assert parse_content_model("a*?") == Optional(Star(Name("a")))

    def test_nested_grouping(self):
        expr = parse_content_model("((a | b), c*)+")
        assert expr == Plus(
            Concat((Union((Name("a"), Name("b"))), Star(Name("c"))))
        )

    def test_mixed_content_declaration(self):
        expr = parse_content_model("(#PCDATA | em | strong)*")
        assert expr == Star(Union((TEXT, Name("em"), Name("strong"))))

    def test_names_with_dots_dashes_colons(self):
        assert parse_content_model("xs:element") == Name("xs:element")
        assert parse_content_model("foo-bar.baz") == Name("foo-bar.baz")


class TestErrors:
    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_content_model("   ")

    def test_any_rejected(self):
        with pytest.raises(ParseError, match="ANY"):
            parse_content_model("ANY")

    def test_mixed_separators_rejected(self):
        with pytest.raises(ParseError, match="mix"):
            parse_content_model("(a, b | c)")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_content_model("(a, b")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_content_model("a b")

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError):
            parse_content_model("a & b")


def _nested_spec(depth: int) -> tuple[str, str]:
    """A spec that takes the ILP path, its content model wrapped in
    ``depth`` levels of parentheses."""
    model = "(" * (depth - 1) + "(a*, b+)" + ")" * (depth - 1)
    dtd = (
        f"<!ELEMENT r {model}>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>\n"
        "<!ATTLIST a id CDATA #REQUIRED>\n<!ATTLIST b id CDATA #REQUIRED>\n"
    )
    return dtd, "a.id -> a\nb.id -> b\nb.id <= a.id\n"


def _deep_model(depth: int) -> str:
    """``(a*, (a*, ... (a*, b+) ...))``: ``depth`` real groups, not
    redundant parentheses."""
    model = "(a*, b+)"
    for _ in range(depth - 1):
        model = f"(a*, {model})"
    return model


def _deep_spec(depth: int) -> tuple[str, str]:
    """A spec that takes the ILP path, its content model ``_deep_model``."""
    dtd = (
        f"<!ELEMENT r {_deep_model(depth)}>\n<!ELEMENT a EMPTY>\n"
        "<!ELEMENT b EMPTY>\n"
        "<!ATTLIST a k CDATA #REQUIRED>\n<!ATTLIST b m CDATA #REQUIRED>\n"
    )
    return dtd, "a.k -> a\nb.m -> b\nb.m => a.k\n"


def _random_model(rng: random.Random, depth: int):
    """A random content model at most ``depth`` operators deep."""
    if depth == 0:
        return rng.choice([EPSILON, TEXT, Name(rng.choice("abc"))])
    kind = rng.choice([Concat, Union, Star, Plus, Optional])
    if kind in (Concat, Union):
        return kind(
            tuple(
                _random_model(rng, rng.randint(0, depth - 1))
                for _ in range(rng.randint(2, 4))
            )
        )
    return kind(_random_model(rng, depth - 1))


def _reference_repr(expr) -> str:
    """The dataclass ``repr`` of ``expr``, spelled out recursively."""
    name = type(expr).__name__
    if isinstance(expr, (Concat, Union)):
        items = ", ".join(_reference_repr(item) for item in expr.items)
        return f"{name}(items=({items}))"
    if isinstance(expr, (Star, Plus, Optional)):
        return f"{name}(item={_reference_repr(expr.item)})"
    if isinstance(expr, Name):
        return f"Name(symbol={expr.symbol!r})"
    return f"{name}()"


def _cli_check(tmp_path, spec: tuple[str, str]) -> subprocess.CompletedProcess:
    """``python -m repro check`` on ``spec`` in a fresh interpreter."""
    dtd, sigma = spec
    (tmp_path / "d.dtd").write_text(dtd)
    (tmp_path / "s.txt").write_text(sigma)
    return subprocess.run(
        [sys.executable, "-m", "repro", "check",
         str(tmp_path / "d.dtd"), str(tmp_path / "s.txt")],
        capture_output=True, text=True, timeout=120,
    )


class TestNestingLimit:
    """Content models nest at most ``MAX_NESTING`` groups deep; deeper
    ones are a :class:`ParseError`, never a ``RecursionError``."""

    def test_limit_parses_and_one_more_is_refused(self):
        inner = "(a*, b+)"
        model = "(" * (MAX_NESTING - 1) + inner + ")" * (MAX_NESTING - 1)
        assert parse_content_model(model) == parse_content_model(inner)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_content_model(f"({model})")

    @pytest.mark.parametrize(
        "depth, code, answer",
        [(MAX_NESTING, 0, "consistent: True"),
         (MAX_NESTING + 1, 2, "nests deeper"),
         (3000, 2, "nests deeper")],
    )
    def test_cli(self, tmp_path, depth, code, answer):
        proc = _cli_check(tmp_path, _nested_spec(depth))
        assert proc.returncode == code, proc.stderr
        assert answer in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr

    def test_wire(self):
        """Served from the server's executor thread: the limit answers,
        in redundant parentheses or in real groups, anything deeper is a
        structured ``ParseError``."""
        from repro.service.client import ServiceClient
        from repro.service.registry import SessionRegistry
        from repro.service.server import CheckingServer

        server = CheckingServer(SessionRegistry())
        host, port = server.start_background()
        try:
            with ServiceClient(host, port) as client:
                for dtd, sigma in (
                    _nested_spec(MAX_NESTING), _deep_spec(MAX_NESTING)
                ):
                    response = client.call(
                        {"op": "check", "dtd": dtd, "constraints": sigma}
                    )
                    assert response["ok"], response
                    assert response["result"]["consistent"] is True
                for depth in (MAX_NESTING + 1, 3000):
                    dtd, sigma = _nested_spec(depth)
                    response = client.call(
                        {"op": "check", "dtd": dtd, "constraints": sigma}
                    )
                    assert response["ok"] is False
                    assert response["error"]["type"] == "ParseError"
        finally:
            server.close()

    def test_deep_groups_print_and_reparse(self):
        """Real nesting (not redundant parentheses) up to the limit prints
        at the default recursion limit, and the text parses back."""
        expr = parse_content_model(_deep_model(MAX_NESTING))
        assert parse_content_model(str(expr)) == expr

    def test_deep_groups_repr(self):
        """``repr`` of a model (and of its DTD) at the limit works at
        the default recursion limit, like ``str`` and ``==``."""
        expr = parse_content_model(_deep_model(MAX_NESTING))
        text = repr(expr)
        assert text.startswith("Concat(items=(Star(item=Name(symbol='a')), ")
        assert text.count("Concat(items=") == MAX_NESTING
        dtd = parse_dtd(_deep_spec(MAX_NESTING)[0])
        assert text in repr(dtd)

    def test_repr_matches_the_dataclass_form(self):
        assert repr(Concat((Star(Name("a")), Plus(Name("b"))))) == (
            "Concat(items=(Star(item=Name(symbol='a')), "
            "Plus(item=Name(symbol='b'))))"
        )
        rng = random.Random(2001)
        for _ in range(1200):
            expr = _random_model(rng, depth=rng.randint(0, 4))
            assert repr(expr) == _reference_repr(expr)

    @pytest.mark.parametrize("depth", [170, MAX_NESTING])
    def test_deep_groups_cli(self, tmp_path, depth):
        proc = _cli_check(tmp_path, _deep_spec(depth))
        assert proc.returncode == 0, proc.stderr
        assert "consistent: True" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "a",
            "EMPTY",
            "#PCDATA",
            "(a, b)",
            "(a | b)",
            "(a, b)*",
            "((a | b), c)+",
            "(a?, (b | #PCDATA)*)",
        ],
    )
    def test_parse_str_parse_fixpoint(self, source):
        once = parse_content_model(source)
        twice = parse_content_model(str(once))
        assert once == twice
