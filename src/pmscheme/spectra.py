"""Closed-form eigenvalues, spectral gaps, dimension bounds and verifiers.

Family closed forms come from the one catalog in ``symfunc``;
``family_closed_form`` is the lookup ``gap_report`` and the ratios share.
Nothing here reads an eigenvalue table, and ``conjecture_applies`` is the
one statement of the conjecture's scope.

Irrational comparisons (anything involving n^(3/2) or square roots) are
decided by exact squaring over the integers; floating point appears nowhere
in a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import GuardExceeded, SchemeError
from .matchings import base_matching, relation, representative
from .partitions import (
    Partition,
    addable_rows,
    dim_hook,
    double_factorial,
    generate_partitions,
    irr_char,
    z2,
)
from .symfunc import CATALOG_PREFIXES, catalog_entry, combine, content_power_sums
from .symfunc import eval_expr  # noqa: F401  (bench/spans.py traces spectra.eval_expr)


def valency(mu: Partition) -> int:
    """Degree of the relation graph of mu: 2^n n! over z2(mu), the product
    of m_i! (2 mu_i)^(m_i) across distinct part values."""
    n = mu.n
    if n < 1:
        raise ValueError("valency needs a partition of n >= 1")
    den = z2(mu)
    num = 2**n * factorial(n)
    if num % den:
        raise SchemeError(f"valency of {mu} is not an integer: {num}/{den}")
    return num // den


def phi_n11(mu: Partition) -> int:
    """Eigenvalue of the mu-relation on the eigenspace indexed by [n-1,1]."""
    n = mu.n
    if n < 2:
        raise ValueError("phi_n11 needs n >= 2")
    num = valency(mu) * ((2 * n - 1) * mu.r1() - n)
    den = 2 * n * (n - 1)
    if num % den:
        raise SchemeError(f"phi_n11({mu}) is not an integer: {num}/{den}")
    return num // den


def family_mu(prefix: Partition, n: int) -> Partition:
    """The relation of the prefix family at n: prefix padded by parts of size 1."""
    if n < prefix.n:
        raise ValueError(f"family {prefix} undefined below n={prefix.n}")
    return Partition(prefix.parts + (1,) * (n - prefix.n))


def conjecture_applies(mu: Partition) -> bool:
    """Whether the conjecture puts mu's second largest eigenvalue on [n-1,1]:
    mu has at least two parts of size 1, or mu = [n-1,1] with n != 4."""
    return mu.r1() >= 2 or (mu == Partition((mu.n - 1, 1)) and mu.n != 4)


class BelowFamilyThreshold(ValueError):
    def __init__(self, prefix: Partition, n: int, threshold: int):
        super().__init__(
            f"closed form for family {prefix} is only established for n >= {threshold}"
            f" (asked n={n}); pass force=True to evaluate anyway"
        )
        self.threshold = threshold


def family_second_eig(
    prefix: Partition, n: int, force: bool = False
) -> tuple[int, int]:
    """Closed-form (second eigenvalue, spectral gap) of the prefix family.

    Below the family's validity threshold the polynomial still evaluates but
    is not a proven second eigenvalue; that path requires force=True.
    """
    entry = catalog_entry(prefix)
    mu = family_mu(prefix, n)
    if n < entry.threshold and not force:
        raise BelowFamilyThreshold(prefix, n, entry.threshold)
    second, gap = entry.second(n), entry.gap(n)
    if second.denominator != 1 or gap.denominator != 1:
        raise SchemeError(f"family {prefix} closed form is not integral at n={n}")
    second, gap = int(second), int(gap)
    if second != phi_n11(mu):
        raise SchemeError(f"family {prefix} second eigenvalue misses phi_n11 at n={n}")
    if gap != valency(mu) - second:
        raise SchemeError(f"family {prefix} gap misses valency - second at n={n}")
    return second, gap


def family_threshold(prefix: Partition) -> int:
    return catalog_entry(prefix).threshold


def family_closed_form(mu: Partition) -> tuple[int, int] | None:
    """(second eigenvalue, gap) of mu from its family's closed form; None off
    the catalog or below the family's threshold."""
    prefix = Partition(p for p in mu.parts if p > 1)
    if prefix not in CATALOG_PREFIXES or mu.n < family_threshold(prefix):
        return None
    return family_second_eig(prefix, mu.n)


def hook_gap(n: int, ell: int) -> int:
    """Spectral gap of the hook relation [n-ell, 1^ell], assuming its second
    eigenvalue sits on [n-1,1]: (2n-1)(2n-4)(2n-6)...(2*ell+2).

    Verified on the spot against the counting closed forms for the quotient
    blocks and against valency - phi_n11.
    """
    a, b = hook_quotient_closed_forms(n, ell)
    out = 2 * n - 1
    e = 2 * n - 4
    while e >= 2 * ell + 2:
        out *= e
        e -= 2
    mu = Partition((n - ell,) + (1,) * ell)
    v = valency(mu)
    if v != comb(n, ell) * double_factorial(2 * n - 2 * ell - 2):
        raise SchemeError(f"valency {v} of {mu} disagrees with its hook form")
    if out != v - (a - b):
        raise SchemeError(f"hook gap {out} of {mu} disagrees with v - (a - b)")
    if out != v - phi_n11(mu):
        raise SchemeError(f"hook gap {out} of {mu} disagrees with v - phi_n11")
    return out


def hook_quotient_closed_forms(n: int, ell: int) -> tuple[int, int]:
    """(a, b) block counts of the two-block quotient for the hook relation."""
    if not 1 <= ell <= n - 2:
        raise ValueError(f"hook [n-ell, 1^ell] needs 1 <= ell <= n-2, got ell={ell}")
    a = comb(n - 1, ell - 1) * double_factorial(2 * n - 2 * ell - 2)
    b = comb(n - 2, ell) * double_factorial(2 * n - 2 * ell - 4)
    return a, b


@dataclass(frozen=True)
class DimensionBound:
    """4 * prod(m_i! (2 mu_i)^m_i) * n^(3/2), kept exact as (coefficient, n)."""

    coefficient: int
    n: int

    def allows(self, value: int) -> bool:
        """Exact test of value <= coefficient * n^(3/2), by squaring."""
        if value <= 0:
            return True
        return value * value <= self.coefficient * self.coefficient * self.n**3


def degbou(mu: Partition) -> DimensionBound:
    """Dimension bound for eigenspaces whose eigenvalue is at least the one
    on [n-1,1] in absolute value."""
    return DimensionBound(4 * z2(mu), mu.n)


def eq5_holds(n: int, k: int) -> bool:
    """Exact check of n(2n-1)(2n-5)/3 > 8 n^(3/2) (n-k) (2k)!!.

    The left side is small_dim_cutoff(n) and the right side is the degbou
    bound for [n-k, 1^k].
    """
    if n <= 2 * k:
        return False
    lhs3 = n * (2 * n - 1) * (2 * n - 5)  # 3 * lhs, positive for n >= 3
    if lhs3 <= 0:
        return False
    rhs_sq = 64 * n**3 * (n - k) ** 2 * double_factorial(2 * k) ** 2
    return lhs3 * lhs3 > 9 * rhs_sq


def threshold_n(k: int) -> int:
    """Smallest n > 2k satisfying the dimension-versus-bound inequality.

    That inequality is eq5_holds: small_dim_cutoff(n) exceeds the degbou
    bound for [n-k, 1^k].

    Exponential then binary search on the exact predicate, followed by a
    downward walk so the returned n is minimal even off the monotone tail.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lo = 2 * k + 1
    hi = lo
    while not eq5_holds(hi, k):
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if eq5_holds(mid, k):
            hi = mid
        else:
            lo = mid + 1
    while lo - 1 > 2 * k and eq5_holds(lo - 1, k):
        lo -= 1
    return lo


def double_factorial_ratio_bound_range(lo: int, hi: int) -> bool:
    """Exact check of (2n-1)!!/(2n)!! < 1/sqrt(n+1), squared as
    ((2n-1)!!)^2 (n+1) < ((2n)!!)^2, for every n in [lo, hi], with
    incremental products."""
    odd = double_factorial(2 * lo - 1)
    even = double_factorial(2 * lo)
    odd_sq, even_sq = odd * odd, even * even
    for n in range(lo, hi + 1):
        if odd_sq * (n + 1) >= even_sq:
            return False
        odd_sq *= (2 * n + 1) ** 2
        even_sq *= (2 * n + 2) ** 2
    return True


def small_dim_eigenspaces(n: int) -> list[Partition]:
    """Eigenspace indices with dimension below C(2n,3) - C(2n,2), for n >= 7.

    Scans every partition of n; the result is checked to be exactly
    {[n], [n-1,1]}.
    """
    if n < 7:
        raise GuardExceeded(f"small-dimension scan is only supported for n >= 7, got {n}")
    cutoff = comb(2 * n, 3) - comb(2 * n, 2)
    small = [lam for lam in generate_partitions(n) if dim_hook(lam) < cutoff]
    expected = [Partition((n,)), Partition((n - 1, 1))]
    if small != expected:
        raise SchemeError(f"unexpected small eigenspaces {small}")
    return small


def small_dim_cutoff(n: int) -> int:
    return comb(2 * n, 3) - comb(2 * n, 2)


def _hyperoctahedral_perms(n: int):
    """All 2^n n! vertex permutations stabilizing the base matching."""
    from itertools import permutations, product

    for block_perm in permutations(range(n)):
        for signs in product((0, 1), repeat=n):
            perm = [0] * (2 * n)
            for i in range(n):
                j = block_perm[i]
                if signs[i]:
                    perm[2 * i], perm[2 * i + 1] = 2 * j + 1, 2 * j
                else:
                    perm[2 * i], perm[2 * i + 1] = 2 * j, 2 * j + 1
            yield tuple(perm)


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    m = len(perm)
    seen = bytearray(m)
    parts = []
    for v0 in range(m):
        if seen[v0]:
            continue
        length = 0
        v = v0
        while not seen[v]:
            seen[v] = 1
            v = perm[v]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


# zonal_check walks the 2^n n! stabilizer permutations: 3840 at n = 5.
ZONAL_CHECK_MAX_N = 5


def zonal_check(mu: Partition, lam: Partition) -> Fraction:
    """Eigenvalue via the stabilizer-coset character sum; tiny n only.

    Sums the character of the doubled shape over one full coset of the
    stabilizer of the base matching, scaled by v_mu / (2^n n!).
    """
    n = mu.n
    if lam.n != n:
        raise ValueError("mu and lam must partition the same n")
    if n > ZONAL_CHECK_MAX_N:
        raise GuardExceeded(
            f"coset character sum guarded to n <= {ZONAL_CHECK_MAX_N} (asked {n})",
            estimate=f"stabilizer order 2^n n! = {2**n * factorial(n)}",
        )
    x = _coset_rep(mu)
    shape = lam.double()
    hist: dict[tuple[int, ...], int] = {}
    for h in _hyperoctahedral_perms(n):
        composite = tuple(x[h[v]] for v in range(2 * n))
        t = _cycle_type(composite)
        hist[t] = hist.get(t, 0) + 1
    total = 0
    for t, count in hist.items():
        total += count * irr_char(shape, Partition(t))
    return Fraction(valency(mu) * total, 2**n * factorial(n))


def _coset_rep(mu: Partition) -> tuple[int, ...]:
    """A permutation carrying the base matching to a mu-related matching."""
    q = representative(mu)
    if relation(base_matching(mu.n), q).parts != mu.parts:
        raise SchemeError(f"representative {q} is not in relation {mu}")
    perm = [0] * (2 * mu.n)
    pos = 0
    for v, p in enumerate(q.partner):
        if v < p:
            perm[pos], perm[pos + 1] = v, p
            pos += 2
    return tuple(perm)


@dataclass(frozen=True)
class GapReport:
    """Second-eigenvalue report for one relation graph."""

    n: int
    mu: Partition
    valency: int
    second_eig: int
    gap: int
    witness_rows: tuple[Partition, ...]
    source: str

    def __post_init__(self):
        if self.gap != self.valency - self.second_eig:
            raise SchemeError(f"gap of {self.mu} is not valency - second eigenvalue")
        if self.valency < self.second_eig:
            raise SchemeError(f"second eigenvalue of {self.mu} exceeds the valency")


def gap_report(mu: Partition) -> GapReport:
    """Assemble a GapReport from the closed-form families, falling back to
    the hook product.

    Closed-form sources report true second eigenvalues; the hook product
    assumes the second eigenvalue sits on [n-1,1] and is tagged as
    conjectured, so it covers only hooks the conjecture applies to, not
    [3,1].  ValueError for any other mu: its gap needs the full table.
    """
    n = mu.n
    if n < 2 or mu.parts == (1,) * n:
        raise ValueError(f"{mu} has no spectral gap to report")
    hook_row = Partition((n - 1, 1))
    if (family := family_closed_form(mu)) is not None:
        return GapReport(n, mu, valency(mu), *family, (hook_row,), "closed-form")
    prefix = Partition([p for p in mu.parts if p > 1])
    ell = n - prefix.n
    if len(prefix) == 1 and ell >= 1 and conjecture_applies(mu):
        gap = hook_gap(n, ell)
        second = valency(mu) - gap
        return GapReport(
            n, mu, valency(mu), second, gap, (hook_row,), "conjectured-hook"
        )
    raise ValueError(
        f"no closed form covers {mu}; its gap needs the full table for n={n}"
    )


@dataclass(frozen=True)
class InductionReport:
    prefix: Partition
    n: int
    rhs: Fraction
    passed: bool
    min_slack: Fraction
    witness: tuple[Partition, int]


def _growth_increments(expr, lam: Partition, here, grown) -> list[tuple[int, int]]:
    """(row i, den * (f(lam grown in row i) - f(lam))) for each addable row.

    here and grown are ``expr.at_t`` at t = 2n and 2n + 2.  Growing row i
    of lam adds the boxes of contents c = 2 lam_i - i + 1 and c + 1 to 2*lam,
    so each p_k of the grown shape is p_k(lam) + c^k + (c + 1)^k.
    """
    sums = content_power_sums(lam, expr.kmax)
    base = combine(here, sums)
    parts = lam.parts + (0,)
    out = []
    for i in addable_rows(lam):
        c = 2 * parts[i - 1] - i + 1
        bigger = [s + c**k + (c + 1) ** k for k, s in enumerate(sums)]
        out.append((i, combine(grown, bigger) - base))
    return out


# One scan of the partitions of n: 1.4 s at n = 40 (BENCH_catalog.json).
INDUCTION_MAX_N = 40


def verify_induction_step(prefix: Partition, n: int) -> InductionReport:
    """Check that no one-row growth of any lam != [n] increases the family
    eigenvalue by more than the growth at [n-1,1] does.

    The right-hand side is the increment at lam = [n-1,1], i = 1; the scan
    covers every partition of n except [n] and every admissible row, in
    canonical order and rows ascending, and the witness is the first
    minimum.  Each lam is evaluated once and each growth from lam's power
    sums plus the two new contents; slacks are compared as integers over
    the expression's common denominator.  GuardExceeded above
    INDUCTION_MAX_N, before any partition is made.
    """
    if n < max(prefix.n, 2):
        raise ValueError(f"induction step needs n >= {max(prefix.n, 2)}")
    if n > INDUCTION_MAX_N:
        raise GuardExceeded(
            f"induction step guarded to n <= {INDUCTION_MAX_N} (asked {n})"
        )
    expr = catalog_entry(prefix).expr
    here, grown = expr.at_t(2 * n), expr.at_t(2 * n + 2)
    rhs = dict(_growth_increments(expr, Partition((n - 1, 1)), here, grown))[1]
    best: tuple[int, Partition, int] | None = None
    top = Partition((n,))
    for lam in generate_partitions(n):
        if lam == top:
            continue
        for i, inc in _growth_increments(expr, lam, here, grown):
            slack = rhs - inc
            if best is None or slack < best[0]:
                best = (slack, lam, i)
    if best is None:
        raise SchemeError(f"no eigenspace index below [{n}] to step from")
    slack, wl, wi = best
    den = expr.den
    return InductionReport(
        prefix, n, Fraction(rhs, den), slack >= 0, Fraction(slack, den), (wl, wi)
    )


def max_min_valency(n: int) -> tuple[int, Partition, int, Partition]:
    """(max valency, argmax, min valency, argmin), verified by a full scan."""
    if n < 2:
        raise ValueError("needs n >= 2")
    vmax, amax = -1, None
    vmin, amin = None, None
    for mu in generate_partitions(n):
        v = valency(mu)
        if v > vmax:
            vmax, amax = v, mu
        if vmin is None or v < vmin:
            vmin, amin = v, mu
    if vmax != double_factorial(2 * n - 2) or amax != Partition((n,)):
        raise SchemeError(f"largest valency {vmax} at {amax}, want (2n-2)!! at [{n}]")
    if vmin != 1 or amin != Partition((1,) * n):
        raise SchemeError(f"smallest valency {vmin} at {amin}, want 1 at [1^{n}]")
    return vmax, amax, vmin, amin
