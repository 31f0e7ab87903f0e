"""Enumeration budget guard.

Exhaustive routines (index-vector enumeration, pair tables, ordering
enumeration) refuse to start when the number of cases exceeds the budget,
raising :class:`BudgetExceededError` instead of running for hours.  The
default of 10**7 cases can be overridden through the ``RESAMPLEKIT_BUDGET``
environment variable or per call.
"""

from __future__ import annotations

import operator
import os

DEFAULT_BUDGET = 10_000_000
_ENV_VAR = "RESAMPLEKIT_BUDGET"


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int, what: str):
        self.needed = needed
        self.budget = budget
        self.what = what
        super().__init__(
            f"{what} needs {needed} cases, over the budget of {budget} "
            f"(raise via the {_ENV_VAR} environment variable)")


def enumeration_budget(override: int | None = None) -> int:
    """Resolve the active budget: explicit override, else env var, else
    default.  A budget from either source must be a positive integer; an
    override that is a bool or not an integer raises TypeError."""
    if override is None:
        name, raw = _ENV_VAR, os.environ.get(_ENV_VAR, DEFAULT_BUDGET)
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    else:
        name = "budget"
        try:
            if isinstance(override, bool):
                raise TypeError
            value = operator.index(override)
        except TypeError:
            raise TypeError(
                f"budget must be an integer, got {override!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_budget(needed: int, what: str, budget: int | None = None) -> None:
    """Raise :class:`BudgetExceededError` if ``needed`` exceeds the budget."""
    limit = enumeration_budget(budget)
    if needed > limit:
        raise BudgetExceededError(needed, limit, what)
