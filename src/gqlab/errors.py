"""Exception types shared across the learners and simulators."""

from __future__ import annotations

__all__ = [
    "GqlabError",
    "ScaleError",
    "ViolationError",
    "AmbiguityError",
    "RetryBudgetError",
]


class GqlabError(Exception):
    """Base class for laboratory errors."""


class ScaleError(GqlabError):
    """Instance exceeds a simulation or enumeration cap; refusing is the contract."""


class ViolationError(GqlabError):
    """A stated precondition (promise) was detected to be false at run time."""


class AmbiguityError(GqlabError):
    """Observations are consistent with zero or with several hypotheses."""


class RetryBudgetError(GqlabError):
    """A randomized stage exhausted its retry budget."""

