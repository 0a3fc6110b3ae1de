"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class. Subclasses separate the main failure
modes: malformed inputs (parsing), ill-formed models (validation), problems
that are provably undecidable in general (where only bounded semi-decision
is offered), and configured complexity limits being exceeded.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when textual input (DTD, XML, regex, constraint) is malformed.

    Carries optional position information for diagnostics.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class InvalidDTDError(ReproError):
    """Raised when a DTD violates the well-formedness rules of Definition 2.1.

    Examples: the root element type occurring in a content model, a content
    model referencing an undeclared element type, or attribute sets that
    overlap element-type names.
    """


class InvalidTreeError(ReproError):
    """Raised when an XML tree value violates Definition 2.2 structurally.

    This is about *structural* integrity of the tree object itself (parent
    maps, label domains), not about conformance to a DTD; conformance
    failures are reported as data, not exceptions.
    """


class InvalidConstraintError(ReproError):
    """Raised when a constraint is ill-formed over a given DTD.

    Examples: a key over an element type the DTD does not declare, or an
    inclusion constraint whose attribute lists have different lengths.
    """


class UndecidableProblemError(ReproError):
    """Raised when an exact answer is requested for an undecidable problem.

    The consistency and implication problems for multi-attribute keys and
    foreign keys are undecidable (Theorem 3.1, Corollary 3.4). The library
    refuses to pretend otherwise; callers should use the bounded
    semi-decision procedures instead.
    """


class ComplexityLimitError(ReproError):
    """Raised when an exact procedure would exceed a configured limit.

    For instance, the set-representation system of Theorem 5.1 is
    exponential in the number of attribute pairs occurring in (negated)
    inclusion constraints; beyond the configured cap we raise instead of
    silently consuming unbounded memory.
    """


class SolverError(ReproError):
    """Raised when an ILP backend fails for reasons other than infeasibility.

    Infeasibility is a normal answer and is returned as data; this exception
    signals numerical failure, an unbounded relaxation where boundedness was
    required, or a missing optional backend.
    """


class BudgetExceededError(ReproError):
    """Raised when a request's wall-clock deadline expires mid-solve.

    Cooperative cancellation: the solver checks the ambient deadline
    (:mod:`repro.budget`) at its search loops and raises this instead of
    running on, so a pathological specification times out with a
    structured answer rather than wedging its caller.  The service
    renders it with wire type ``budget_exceeded`` and never caches it —
    a retry with a larger budget re-runs the solve.
    """

    #: The service's structured error type for this failure mode.
    wire_type = "budget_exceeded"


class OverloadedError(ReproError):
    """Raised when the service sheds a request instead of queueing it.

    Admission control (bounded per-session queues, a global in-flight
    cap, a connection cap) answers over-limit work immediately with this
    error rather than letting queues grow without bound.  The service
    renders it with wire type ``overloaded`` plus a ``retry_after`` hint
    in seconds; it is load feedback, not a verdict, and is never cached.
    """

    #: The service's structured error type for this failure mode.
    wire_type = "overloaded"

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = retry_after
