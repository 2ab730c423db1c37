"""Exception types shared across the package."""


class SchemeError(Exception):
    """Base class for package-specific failures."""


class GuardExceeded(SchemeError):
    """A resource guard (matching count, memory) blocked the request."""

    def __init__(self, message: str, estimate: str = ""):
        super().__init__(message)
        self.estimate = estimate

    def __str__(self) -> str:
        message = super().__str__()
        return f"{message} ({self.estimate})" if self.estimate else message


class AmbiguousRowAssignment(SchemeError):
    """An eigenvector row could not be matched to a unique eigenspace index."""

    def __init__(self, message: str, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class IncompleteTable(SchemeError):
    """An operation needed table cells that were never filled."""


class FitUnderdetermined(SchemeError):
    """The interpolation data does not pin down the coefficients."""


class FitInconsistent(SchemeError):
    """No exact coefficient assignment reproduces the supplied data."""
