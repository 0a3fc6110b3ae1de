"""Per-request wall-clock budgets with cooperative cancellation.

A :class:`Deadline` is an absolute ``time.monotonic()`` expiry.  The
service front end opens a :func:`deadline_scope` around each request's
solver work; the support-branch DFS calls :func:`check_deadline` at
every node and raises :class:`~repro.errors.BudgetExceededError` once
the budget is spent.  The scope travels through a
:class:`contextvars.ContextVar`, so it needs no parameter threading, is
and per-thread (each executor thread serves one request at a time).

When no scope is open, :func:`check_deadline` is a single
``ContextVar.get`` — cheap enough for per-node use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.errors import BudgetExceededError


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry: ``budget`` seconds measured from ``start``."""

    expires_at: float
    budget: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The deadline ``seconds`` from now (clock: ``time.monotonic``)."""
        if seconds < 0:
            raise ValueError("a deadline budget cannot be negative")
        return cls(expires_at=time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def exceeded(self) -> BudgetExceededError:
        """The structured error reporting this deadline as spent."""
        return BudgetExceededError(
            f"request deadline of {self.budget:.3f}s exceeded"
        )


#: The ambient deadline of the request being served (None = unbounded).
_DEADLINE: ContextVar[Deadline | None] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Deadline | None:
    """The deadline governing the current context, if any."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Run a block under ``deadline`` (``None`` leaves the scope open).

    Nested scopes keep the *tighter* expiry, so an outer request budget
    cannot be loosened by an inner caller.

    >>> with deadline_scope(Deadline.after(60.0)):
    ...     current_deadline().budget
    60.0
    >>> current_deadline() is None
    True
    """
    if deadline is None:
        yield
        return
    outer = _DEADLINE.get()
    if outer is not None and outer.expires_at <= deadline.expires_at:
        yield
        return
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise :class:`BudgetExceededError` if the ambient deadline passed.

    The cooperative cancellation point: loops that can run long call
    this once per iteration.

    >>> check_deadline()   # no scope open: a no-op
    >>> with deadline_scope(Deadline(expires_at=0.0, budget=0.0)):
    ...     check_deadline()
    Traceback (most recent call last):
        ...
    repro.errors.BudgetExceededError: request deadline of 0.000s exceeded
    """
    deadline = _DEADLINE.get()
    if deadline is not None and deadline.expired():
        raise deadline.exceeded()
