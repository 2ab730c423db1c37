"""Exception types shared across the package, and the text guards use for
numbers of any size."""

from decimal import Decimal, localcontext

# An int of up to 640 digits prints under every int-to-str limit that Python
# allows (sys.set_int_max_str_digits takes 640 or more, or 0 for none).
_FULL_BELOW = 10**640


def about(log10: Decimal) -> str:
    """'about 10^k' for a count whose base-10 logarithm is log10, k rounded;
    a k of 20 digits or more is itself written as about 10^m."""
    with localcontext() as ctx:
        ctx.prec = 40
        if log10 < 10**19:
            return f"about 10^{log10:.0f}"
        return f"about 10^({about(log10.log10())})"


def int_text(n: int) -> str:
    """n for a refusal: in full up to 640 digits, else 'about 10^k', from
    n's logarithm, so that no long decimal string is built."""
    if -_FULL_BELOW < n < _FULL_BELOW:
        return str(n)
    text = about(Decimal(abs(n)).log10())
    return text if n > 0 else text.replace("10^", "-10^", 1)


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
