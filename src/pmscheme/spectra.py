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
from decimal import Decimal
from fractions import Fraction
from itertools import compress, product
from math import comb, factorial, prod
from operator import mul

from .errors import SchemeError, count_text, guard, ln_factorial
from .matchings import base_matching, relation, representative
from .partitions import (
    Partition,
    double_factorial,
    eigenspace_dim,
    generate_partitions,
    irr_char,
    iter_partitions,
    valency,
    z2,
)
from .symfunc import (
    CATALOG_PREFIXES,
    PowerSumExpr,
    catalog_entry,
    combine,
    content_power_sums,
    horner,
)
from .symfunc import eval_expr  # noqa: F401  (bench/spans.py traces spectra.eval_expr)


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
    return Partition(prefix + (1,) * (n - prefix.n))


def conjecture_applies(mu: Partition) -> bool:
    """Whether the conjecture puts mu's second largest eigenvalue on [n-1,1]:
    mu has at least two parts of size 1, or mu = [n-1,1] with n != 4."""
    return mu.r1() >= 2 or (mu == Partition((mu.n - 1, 1)) and mu.n != 4)


class BelowFamilyThreshold(ValueError):
    def __init__(self, prefix: Partition, n: int, threshold: int):
        super().__init__(
            f"closed form for family {prefix} is only established for n >= {threshold}"
            f" (asked n={n})"
        )
        self.threshold = threshold


def family_second_eig(prefix: Partition, n: int) -> tuple[int, int]:
    """Closed-form (second eigenvalue, spectral gap) of the prefix family;
    BelowFamilyThreshold below the n from which the paper proves it.  Both
    polynomials are evaluated in integers, over the entry's denominator."""
    entry = catalog_entry(prefix)
    mu = family_mu(prefix, n)
    if n < entry.threshold:
        raise BelowFamilyThreshold(prefix, n, entry.threshold)
    second, second_rem = divmod(horner(entry.second, n), entry.den)
    gap, gap_rem = divmod(horner(entry.gap, n), entry.den)
    if second_rem or gap_rem:
        raise SchemeError(f"family {prefix} closed form is not integral at n={n}")
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
    prefix = Partition(p for p in mu if p > 1)
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


# One scan of the partitions of n: 2.1 s at n = 38 (Python 3.11, 2 cores,
# fresh process).
SMALL_DIM_MAX_N = 38


def small_dim_eigenspaces(n: int) -> list[Partition]:
    """Eigenspace indices with dimension below small_dim_cutoff(n), for
    7 <= n <= SMALL_DIM_MAX_N.

    Scans every partition of n, through the uncached ``iter_partitions``
    and ``eigenspace_dim``; the result is checked to be exactly
    {[n], [n-1,1]}.
    """
    guard("small-dimension scan", n, SMALL_DIM_MAX_N, lo=7)
    cutoff = small_dim_cutoff(n)
    small = [lam for lam in iter_partitions(n) if eigenspace_dim(lam) < cutoff]
    expected = [Partition((n,)), Partition((n - 1, 1))]
    if small != expected:
        raise SchemeError(f"unexpected small eigenspaces {small}")
    return small


def small_dim_cutoff(n: int) -> int:
    """C(2n,3) - C(2n,2)."""
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


def _order_estimate(n: int) -> str:
    ln_order = n * Decimal(2).ln() + ln_factorial(n)
    order = count_text(ln_order, lambda: 2**n * factorial(n))
    return f"stabilizer order 2^n n! = {order}"


def zonal_check(mu: Partition, lam: Partition) -> Fraction:
    """Eigenvalue via the stabilizer-coset character sum; tiny n only.

    Sums the character of the doubled shape over one full coset of the
    stabilizer of the base matching, scaled by v_mu / (2^n n!).
    """
    n = mu.n
    if lam.n != n:
        raise ValueError("mu and lam must partition the same n")
    guard("coset character sum", n, ZONAL_CHECK_MAX_N, estimate=_order_estimate)
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
    if relation(base_matching(mu.n), q) != mu:
        raise SchemeError(f"representative {q} is not in relation {mu}")
    perm = [0] * (2 * mu.n)
    pos = 0
    for v, p in enumerate(q):
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
    if n < 2 or mu == (1,) * n:
        raise ValueError(f"{mu} has no spectral gap to report")
    if (family := family_closed_form(mu)) is not None:
        return GapReport(n, mu, valency(mu), *family, "closed-form")
    prefix = Partition([p for p in mu if p > 1])
    ell = n - prefix.n
    if len(prefix) == 1 and ell >= 1 and conjecture_applies(mu):
        gap = hook_gap(n, ell)
        second = valency(mu) - gap
        return GapReport(n, mu, valency(mu), second, gap, "conjectured-hook")
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


class _GrowthIncrements:
    """den * (f(lam grown in row i) - f(lam)) for the partitions lam of n.

    Growing row i of lam adds the boxes of contents c = 2 lam_i - i + 1 and
    c + 1 to 2*lam, so each p_k of the grown shape is s_k + d_k(c), with s
    lam's power sums and d_k(c) = c^k + (c + 1)^k.  Expanding each monomial
    of f at t = 2n + 2 over the factors that take d(c),

        f_(2n+2)(s + d(c)) - f_(2n)(s)
            = (f_(2n+2) - f_(2n))(s) + sum over sigma of C_sigma(c) p_sigma(s),

    with sigma over the proper sub-monomials of f's monomials and
    C_sigma(c) the sum, over each monomial rho and each choice of the
    factors of rho that keep s_k and form sigma, of rho's coefficient times
    the product of d_k(c) over the other factors.  C(c) is filled on first
    use of each content c, so a growth costs one short dot product in
    integers.
    """

    def __init__(self, expr: PowerSumExpr, n: int):
        here, grown = expr.at_t(2 * n), expr.at_t(2 * n + 2)
        # a monomial whose coefficient is constant in t leaves the difference
        self.diff = [
            (g - h, parts) for (h, parts), (g, _) in zip(here, grown) if g != h
        ]
        subs: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
        for g, parts in grown:
            for keep in product((True, False), repeat=len(parts)):
                if not all(keep):
                    sigma = tuple(compress(parts, keep))
                    rest = tuple(k for k, kept in zip(parts, keep) if not kept)
                    subs.setdefault(sigma, []).append((g, rest))
        self.sigmas = list(subs)
        self.terms = list(subs.values())
        self.by_content: dict[int, list[int]] = {}
        self.dmax = expr.kmax
        # the largest p_k of lam that the difference or a sigma reads
        self.kmax = max(
            (m[0] for m in [*(parts for _, parts in self.diff), *self.sigmas] if m),
            default=0,
        )

    def __call__(self, lam: Partition) -> list[tuple[int, int]]:
        """(row i, increment) for each row i where lam can grow, ascending
        (``addable_rows``)."""
        sums = content_power_sums(lam, self.kmax)
        base = combine(self.diff, sums)
        monos = [prod([sums[k] for k in sigma]) for sigma in self.sigmas]
        by_content = self.by_content
        out = []
        above = 0
        for i, part in enumerate(lam + (0,), start=1):
            if part == above:  # row i - 1 is as long, so row i cannot grow
                continue
            above = part
            c = 2 * part - i + 1
            coeffs = by_content.get(c)
            if coeffs is None:
                d = [c**k + (c + 1) ** k for k in range(self.dmax + 1)]
                coeffs = by_content[c] = [combine(t, d) for t in self.terms]
            out.append((i, base + sum(map(mul, coeffs, monos))))
        return out


# One scan of the partitions of n: 0.45 s at n = 40 for family [5], as a
# command in a fresh process (BENCH_scans.json, Python 3.11, 2 cores).
INDUCTION_MAX_N = 40


def verify_induction_step(prefix: Partition, n: int) -> InductionReport:
    """Check that no one-row growth of any lam != [n] increases the family
    eigenvalue by more than the growth at [n-1,1] does.

    The right-hand side is the increment at lam = [n-1,1], i = 1; the scan
    covers every partition of n except [n] and every admissible row, in
    canonical order and rows ascending, and the witness is the first
    minimum.  Each lam's power sums are summed once, and each growth is
    read off them and the two new contents by ``_GrowthIncrements``; slacks
    are compared as integers over the expression's common denominator.
    GuardExceeded above INDUCTION_MAX_N, before any partition is made.
    """
    if n < max(prefix.n, 2):
        raise ValueError(f"induction step needs n >= {max(prefix.n, 2)}")
    guard("induction step", n, INDUCTION_MAX_N)
    expr = catalog_entry(prefix).expr
    increments = _GrowthIncrements(expr, n)
    rhs = dict(increments(Partition((n - 1, 1))))[1]
    best: tuple[int, Partition, int] | None = None
    top = Partition((n,))
    for lam in generate_partitions(n):
        if lam == top:
            continue
        for i, inc in increments(lam):
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


# One scan of the partitions of n: 1.8 s at n = 48 (Python 3.11, 2 cores,
# fresh process).
VALENCY_SCAN_MAX_N = 48


def max_min_valency(n: int) -> tuple[int, Partition, int, Partition]:
    """(max valency, argmax, min valency, argmin), verified by a full scan
    of the uncached ``iter_partitions``; GuardExceeded above
    VALENCY_SCAN_MAX_N."""
    if n < 2:
        raise ValueError("needs n >= 2")
    guard("valency scan", n, VALENCY_SCAN_MAX_N)
    vmax, amax = -1, None
    vmin, amin = None, None
    for mu in iter_partitions(n):
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
