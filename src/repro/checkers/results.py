"""Result types returned by the decision procedures."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xmltree.model import XMLTree
from repro.xmltree.serialize import tree_to_string


def _tree_text(tree: XMLTree | None) -> str | None:
    return tree_to_string(tree) if tree is not None else None


@dataclass
class ConsistencyResult:
    """Answer to "is there a tree with ``T |= D`` and ``T |= Sigma``?".

    ``witness`` (when requested and consistent) is an actual XML tree that
    has been re-verified against both the DTD and the constraints.
    ``method`` names the procedure that produced the answer; ``stats``
    carries solver counters for benchmarks.
    """

    consistent: bool
    witness: XMLTree | None = None
    method: str = ""
    message: str = ""
    stats: dict[str, int | bool] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.consistent

    def as_dict(self) -> dict:
        """JSON-able rendering — the ``check`` wire payload body."""
        return {
            "consistent": self.consistent,
            "method": self.method,
            "message": self.message,
            "stats": dict(self.stats),
            "witness": _tree_text(self.witness),
        }


@dataclass
class ImplicationResult:
    """Answer to "does ``(D, Sigma) |- phi`` hold?".

    When the implication is refuted and witnesses were requested,
    ``counterexample`` is a tree with ``T |= D``, ``T |= Sigma`` and
    ``T |= not phi``.
    """

    implied: bool
    counterexample: XMLTree | None = None
    method: str = ""
    message: str = ""
    stats: dict[str, int | bool] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.implied

    def as_dict(self) -> dict:
        """JSON-able rendering — the ``implies`` wire payload body."""
        return {
            "implied": self.implied,
            "method": self.method,
            "message": self.message,
            "stats": dict(self.stats),
            "counterexample": _tree_text(self.counterexample),
        }
