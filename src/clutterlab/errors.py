"""Structured errors and resource guardrails shared by all modules."""

from __future__ import annotations

import os
from functools import lru_cache, wraps

DEFAULT_STEP_BUDGET = 10_000_000
DEFAULT_RAY_CAP = 100_000


class UsageError(ValueError):
    """Caller violated a precondition (bad dimensions, empty input, ...)."""


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


def step_budget(override: int | None = None) -> int:
    """Default elementary-step budget, overridable via CLUTTERLAB_BUDGET."""
    if override is not None:
        return override
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

    def __init__(self, budget: int, what: str):
        self.remaining = budget
        self.what = what

    def spend(self, count: int = 1):
        self.remaining -= count
        if self.remaining < 0:
            raise Undecided(self.what)


def budget_keyed_cache(maxsize: int):
    """`functools.lru_cache` for f(x, budget), keyed on the resolved budget.

    The cache sees `step_budget(budget)`, so a result reached under the
    default budget is not returned after CLUTTERLAB_BUDGET lowers it, and
    budget=None shares entries with the explicit default.  `cache_info`,
    `cache_clear` and `__wrapped__` are those of the lru_cache.
    """

    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def call(x, budget: int | None = None):
            return cached(x, step_budget(budget))

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return decorate
