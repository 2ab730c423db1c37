"""Exception types shared across the package, and ``guard``, the one place
that checks a size limit and words its refusal, with the text it uses for
numbers and counts of any size: no refusal builds a long decimal string.
"""

from decimal import Decimal, localcontext
from typing import Callable

# An int of up to 640 digits prints under every int-to-str limit that Python
# allows (sys.set_int_max_str_digits takes 640 or more, or 0 for none).
_FULL_BELOW = 10**640

# pi to 40 digits, for the decimal arithmetic of the refusal estimates
PI = Decimal("3.141592653589793238462643383279502884197")


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


def ln_factorial(n: int) -> Decimal:
    """ln n! for n >= 1 by Stirling's series n ln n - n + ln(2 pi n) / 2, in
    40-digit decimal arithmetic, which takes an n of any size; it sizes a
    message, not a verdict."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(n)
        return x * x.ln() - x + (2 * PI * x).ln() / 2


def count_text(ln_count: Decimal, exact: Callable[[], int]) -> str:
    """A count for a refusal, given its natural logarithm: exact() in full
    below 10^20, else 'about 10^k', so that a long count is never built."""
    with localcontext() as ctx:
        ctx.prec = 40
        log10 = ln_count / Decimal(10).ln()
    return str(exact()) if log10 < 20 else about(log10)


class SchemeError(Exception):
    """Base class for package-specific failures."""


class GuardExceeded(SchemeError):
    """A size limit blocked the request; ``guard`` raises it."""


def guard(
    what: str,
    n: int,
    hi: int,
    lo: int | None = None,
    estimate: Callable[[int], str] | None = None,
) -> None:
    """Refuse an n outside lo..hi, before any work, with GuardExceeded
    "WHAT guarded to n <= HI (asked N)" (or "n >= LO"); above hi the
    message ends with " (estimate(n))", which sizes the refused work."""
    if lo is not None and n < lo:
        raise GuardExceeded(f"{what} guarded to n >= {lo} (asked {int_text(n)})")
    if n > hi:
        tail = f" ({estimate(n)})" if estimate else ""
        raise GuardExceeded(f"{what} guarded to n <= {hi} (asked {int_text(n)}){tail}")


class AmbiguousRowAssignment(SchemeError):
    """A complete table row's multiplicity or stratum sums are not its label's;
    ``tables._check_table`` raises it for every table built or loaded."""


class IncompleteTable(SchemeError):
    """An operation needed table cells that were never filled."""


class FitUnderdetermined(SchemeError):
    """The interpolation data does not pin down the coefficients."""


class FitInconsistent(SchemeError):
    """No exact coefficient assignment reproduces the supplied data."""
