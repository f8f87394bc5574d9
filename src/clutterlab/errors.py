"""Structured errors and resource guardrails shared by all modules."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache, wraps
from operator import index

DEFAULT_STEP_BUDGET = 10_000_000
DEFAULT_RAY_CAP = 100_000


class UsageError(ValueError):
    """Caller violated a precondition (bad dimensions, empty input, ...)."""


def _integer(x) -> int:
    """x as an int, from anything with `__index__` (a bool too); a float, a
    Fraction or a string raises UsageError instead of being truncated."""
    try:
        return index(x)
    except TypeError as exc:
        raise UsageError(f"expected an integer, got {x!r}") from exc


class ResourceExceeded(RuntimeError):
    """A hard cap on intermediate object counts was hit; fail loudly."""

    def __init__(self, resource: str, cap: int):
        super().__init__(f"resource exceeded: {resource} (cap {cap})")
        self.resource = resource
        self.cap = cap


class Undecided(RuntimeError):
    """A bounded search ran out of budget before reaching a verdict.

    Never a wrong answer: callers must surface this as a distinct
    "undecided" outcome, not coerce it to True/False.
    """

    def __init__(self, what: str):
        super().__init__(f"undecided: {what}")
        self.what = what


_SCOPED_BUDGET: ContextVar[int | None] = ContextVar("step_budget", default=None)


@contextmanager
def budget(limit: int):
    """Run the block under step limit `limit`; the enclosing one returns on any exit."""
    token = _SCOPED_BUDGET.set(limit)
    try:
        yield
    finally:
        _SCOPED_BUDGET.reset(token)


def step_budget() -> int:
    """The step limit of every bounded enumeration, read at its start and
    passed in no argument: the innermost `budget` scope, else
    CLUTTERLAB_BUDGET, else DEFAULT_STEP_BUDGET."""
    scoped = _SCOPED_BUDGET.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get("CLUTTERLAB_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"CLUTTERLAB_BUDGET must be an integer, got {raw!r}") from exc
    return DEFAULT_STEP_BUDGET


class StepCounter:
    """Mutable countdown used by bounded searches."""

    __slots__ = ("remaining", "what")

    def __init__(self, limit: int, what: str):
        self.remaining = limit
        self.what = what

    def spend(self, count: int = 1):
        self.remaining -= count
        if self.remaining < 0:
            raise Undecided(self.what)


def budget_keyed_cache(maxsize: int):
    """`functools.lru_cache` for f(x), keyed on (x, `step_budget()` at call
    time): a result reached under one limit never answers under another,
    and an `Undecided` that f raises is not cached.  `cache_info` and
    `cache_clear` are the lru_cache's; `__wrapped__` is f."""

    def decorate(fn):
        @lru_cache(maxsize=maxsize)
        def cached(x, limit: int):
            return fn(x)

        @wraps(fn)
        def call(x):
            return cached(x, step_budget())

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return decorate
