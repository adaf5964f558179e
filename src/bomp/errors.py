"""Exception types shared across the package."""


class BompError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficientError(BompError):
    """A subdictionary is numerically rank deficient.

    Raised when the smallest singular value of the selected column blocks
    falls below ``RANK_TOL`` times the largest; least squares on such a
    dictionary is meaningless.
    """


class BudgetExceededError(BompError):
    """An exhaustive computation would exceed its floating-point budget."""


class InfeasibleError(BompError):
    """Bound requested outside its feasible parameter region."""


class DegenerateProbeError(BompError):
    """The probe block is orthogonal to the projected observation, so the
    unit probe direction is undefined."""
