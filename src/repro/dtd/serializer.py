"""Serialization of DTDs back to declaration syntax."""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.regex.ast import Concat, Epsilon, Regex, Text, Union


def _content_to_text(expr: Regex) -> str:
    """Render a content model in declaration syntax (always parenthesized
    except for ``EMPTY``, matching common DTD style)."""
    if isinstance(expr, Epsilon):
        return "EMPTY"
    if isinstance(expr, (Concat, Union, Text)):
        return f"({expr})"
    rendered = str(expr)
    if rendered.startswith("("):
        return rendered
    return f"({rendered})"


def dtd_to_string(dtd: DTD) -> str:
    """Render ``dtd`` as ``<!ELEMENT ...>`` / ``<!ATTLIST ...>`` text.

    The root element is emitted first so that
    ``parse_dtd(dtd_to_string(d))`` reconstructs the same DTD including its
    root choice.  It is ``dtd.text``, rendered once per DTD object.
    """
    return dtd.text


def render_dtd(dtd: DTD) -> str:
    """The text behind :attr:`DTD.text <repro.dtd.model.DTD.text>`."""
    order = [dtd.root] + [t for t in dtd.element_types if t != dtd.root]
    lines: list[str] = []
    for tau in order:
        lines.append(f"<!ELEMENT {tau} {_content_to_text(dtd.content[tau])}>")
    for tau in order:
        names = sorted(dtd.attrs(tau))
        if names:
            decls = " ".join(f"{name} CDATA #REQUIRED" for name in names)
            lines.append(f"<!ATTLIST {tau} {decls}>")
    return "\n".join(lines) + "\n"
