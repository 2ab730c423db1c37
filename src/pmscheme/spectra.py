"""Closed-form eigenvalues, spectral gaps, dimension bounds and verifiers.

Irrational comparisons (anything involving n^(3/2) or square roots) are
decided by exact squaring over the integers; floating point appears nowhere
in a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

from .errors import GuardExceeded
from .matchings import base_matching, relation, representative
from .partitions import (
    Partition,
    dim_hook,
    double_factorial,
    generate_partitions,
    irr_char,
    successors,
)
from .symfunc import delta_eval, e_catalog, eval_expr


def valency(mu: Partition) -> int:
    """Degree of the relation graph of mu: 2^n n! over the product of
    m_i! (2 mu_i)^(m_i) across distinct part values."""
    n = mu.n
    if n < 1:
        raise ValueError("valency needs a partition of n >= 1")
    den = 1
    for value, m in mu.multiplicities().items():
        den *= factorial(m) * (2 * value) ** m
    num = 2**n * factorial(n)
    assert num % den == 0
    return num // den


def phi_n11(mu: Partition) -> int:
    """Eigenvalue of the mu-relation on the eigenspace indexed by [n-1,1]."""
    n = mu.n
    if n < 2:
        raise ValueError("phi_n11 needs n >= 2")
    num = valency(mu) * ((2 * n - 1) * mu.r1() - n)
    den = 2 * n * (n - 1)
    assert num % den == 0, "eigenvalue formula must give an integer"
    return num // den


@dataclass(frozen=True)
class FamilySpec:
    """A relation family: fixed prefix of parts >= 2 padded by parts of size 1."""

    prefix: Partition

    @property
    def min_n(self) -> int:
        return self.prefix.n

    def mu(self, n: int) -> Partition:
        if n < self.min_n:
            raise ValueError(f"family {self.prefix} undefined below n={self.min_n}")
        return Partition(self.prefix.parts + (1,) * (n - self.prefix.n))


def _poly(n: int, *coeffs) -> Fraction:
    """coeffs are for descending powers: _poly(n, a, b, c) = a n^2 + b n + c."""
    out = Fraction(0)
    for c in coeffs:
        out = out * n + Fraction(c)
    return out


# prefix -> (validity threshold, second eigenvalue, spectral gap), both exact
# polynomials in n.
_FAMILY_FORMS = {
    (2,): (
        3,
        lambda n: _poly(n, 1, -3, 1),
        lambda n: _poly(n, 2, -1),
    ),
    (3,): (
        5,
        lambda n: _poly(n, Fraction(4, 3), -8, Fraction(38, 3), -4),
        lambda n: _poly(n, 4, -10, 4),
    ),
    (2, 2): (
        6,
        lambda n: _poly(n, Fraction(1, 2), -5, Fraction(33, 2), -20, 6),
        lambda n: _poly(n, 2, -11, 17, -6),
    ),
    (4,): (
        6,
        lambda n: _poly(n, 2, -20, 66, -80, 24),
        lambda n: _poly(n, 8, -44, 68, -24),
    ),
    (3, 2): (
        7,
        lambda n: Fraction(2, 3) * _poly(n, 2, -30, 165, -405, 418, -120),
        lambda n: Fraction(1, 3) * _poly(n, 20, -190, 610, -740, 240),
    ),
    (5,): (
        6,
        lambda n: Fraction(8, 5) * _poly(n, 2, -30, 165, -405, 418, -120),
        lambda n: _poly(n, 16, -152, 488, -592, 192),
    ),
}


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
    key = prefix.parts
    if key not in _FAMILY_FORMS:
        raise ValueError(f"no closed form in catalog for prefix {prefix}")
    threshold, second_f, gap_f = _FAMILY_FORMS[key]
    if n < prefix.n:
        raise ValueError(f"family {prefix} undefined below n={prefix.n}")
    if n < threshold and not force:
        raise BelowFamilyThreshold(prefix, n, threshold)
    second, gap = second_f(n), gap_f(n)
    assert second.denominator == 1 and gap.denominator == 1
    second, gap = int(second), int(gap)
    mu = FamilySpec(prefix).mu(n)
    assert second == phi_n11(mu)
    assert gap == valency(mu) - second
    return second, gap


def family_threshold(prefix: Partition) -> int:
    key = prefix.parts
    if key not in _FAMILY_FORMS:
        raise ValueError(f"no closed form in catalog for prefix {prefix}")
    return _FAMILY_FORMS[key][0]


def hook_gap(n: int, ell: int) -> int:
    """Spectral gap of the hook relation [n-ell, 1^ell], assuming its second
    eigenvalue sits on [n-1,1]: (2n-1)(2n-4)(2n-6)...(2*ell+2).

    Verified on the spot against the counting closed forms for the quotient
    blocks and against valency - phi_n11.
    """
    if not 1 <= ell <= n - 2:
        raise ValueError(f"hook [n-ell, 1^ell] needs 1 <= ell <= n-2, got ell={ell}")
    out = 2 * n - 1
    e = 2 * n - 4
    while e >= 2 * ell + 2:
        out *= e
        e -= 2
    mu = Partition((n - ell,) + (1,) * ell)
    a = comb(n - 1, ell - 1) * double_factorial(2 * n - 2 * ell - 2)
    b = comb(n - 2, ell) * double_factorial(2 * n - 2 * ell - 4)
    v = valency(mu)
    assert v == comb(n, ell) * double_factorial(2 * n - 2 * ell - 2)
    assert out == v - (a - b)
    assert out == v - phi_n11(mu)
    return out


def hook_quotient_closed_forms(n: int, ell: int) -> tuple[int, int]:
    """(a, b) block counts of the two-block quotient for the hook relation."""
    if not 1 <= ell <= n - 2:
        raise ValueError(f"hook [n-ell, 1^ell] needs 1 <= ell <= n-2, got ell={ell}")
    a = comb(n - 1, ell - 1) * double_factorial(2 * n - 2 * ell - 2)
    b = comb(n - 2, ell) * double_factorial(2 * n - 2 * ell - 4)
    return a, b


def trace_identity_check(n: int, mu: Partition, table) -> bool:
    """v_mu (2n-1)!! equals the dimension-weighted sum of squared eigenvalues;
    off the identity relation the plain dimension-weighted sum is zero."""
    column = table.column(mu)
    dims = table.dims
    v = valency(mu)
    lhs = v * double_factorial(2 * n - 1)
    rhs = sum(phi * phi * f for phi, f in zip(column, dims))
    if lhs != rhs:
        return False
    if mu.parts != (1,) * n:
        if sum(phi * f for phi, f in zip(column, dims)) != 0:
            return False
    return True


@dataclass(frozen=True)
class DimensionBound:
    """4 * prod(m_i! (2 mu_i)^m_i) * n^(3/2), kept exact as (coefficient, n)."""

    coefficient: int
    n: int
    upper: Fraction

    def allows(self, value: int) -> bool:
        """Exact test of value <= coefficient * n^(3/2), by squaring."""
        if value <= 0:
            return True
        return value * value <= self.coefficient * self.coefficient * self.n**3


def degbou(mu: Partition) -> DimensionBound:
    """Dimension bound for eigenspaces whose eigenvalue is at least the one
    on [n-1,1] in absolute value."""
    n = mu.n
    prod = 1
    for value, m in mu.multiplicities().items():
        prod *= factorial(m) * (2 * value) ** m
    coeff = 4 * prod
    scale = 10**6
    root = isqrt(n**3 * scale * scale)
    if root * root < n**3 * scale * scale:
        root += 1
    return DimensionBound(coeff, n, Fraction(coeff * root, scale))


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


def double_factorial_ratio_bound(n: int) -> bool:
    """Exact check of (2n-1)!!/(2n)!! < 1/sqrt(n+1)."""
    odd = double_factorial(2 * n - 1)
    even = double_factorial(2 * n)
    return odd * odd * (n + 1) < even * even


def double_factorial_ratio_bound_range(lo: int, hi: int) -> bool:
    """double_factorial_ratio_bound for every n in [lo, hi], with incremental products."""
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
    assert small == expected, f"unexpected small eigenspaces {small}"
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


def zonal_check(mu: Partition, lam: Partition, max_n: int = 5) -> Fraction:
    """Eigenvalue via the stabilizer-coset character sum; tiny n only.

    Sums the character of the doubled shape over one full coset of the
    stabilizer of the base matching, scaled by v_mu / (2^n n!).
    """
    n = mu.n
    if lam.n != n:
        raise ValueError("mu and lam must partition the same n")
    if n > max_n:
        raise GuardExceeded(
            f"coset character sum guarded to n <= {max_n} (asked {n})",
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
    assert relation(base_matching(mu.n), q).parts == mu.parts
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
        assert self.gap == self.valency - self.second_eig
        assert self.valency >= self.second_eig


def gap_report(mu: Partition, table=None, force: bool = False) -> GapReport:
    """Assemble a GapReport from a complete table column when one is given,
    falling back to the closed-form families and then to the hook product.

    Closed-form and table sources report true second eigenvalues; the hook
    product assumes the second eigenvalue sits on [n-1,1] and is tagged as
    conjectured.  It is not used for [3,1], the conjecture's n = 4
    exception, which needs a table.
    """
    n = mu.n
    if n < 2 or mu.parts == (1,) * n:
        raise ValueError(f"{mu} has no spectral gap to report")
    hook_row = Partition((n - 1, 1))
    if table is not None:
        from .tables import second_largest

        second, rows = second_largest(table, mu)
        return GapReport(
            n, mu, valency(mu), second, valency(mu) - second, tuple(rows), "table"
        )
    prefix = Partition([p for p in mu.parts if p > 1])
    if prefix.parts in _FAMILY_FORMS:
        try:
            second, gap = family_second_eig(prefix, n, force=force)
            tag = "closed-form" if n >= family_threshold(prefix) else "forced-closed-form"
            return GapReport(n, mu, valency(mu), second, gap, (hook_row,), tag)
        except BelowFamilyThreshold:
            pass
    ell = n - prefix.n
    # The hook product assumes the conjecture, so only where its hypothesis
    # holds: the same applicability rule as tables.verify_conjecture.
    if len(prefix) == 1 and 1 <= ell <= n - 2 and (ell >= 2 or n != 4):
        gap = hook_gap(n, ell)
        second = valency(mu) - gap
        return GapReport(
            n, mu, valency(mu), second, gap, (hook_row,), "conjectured-hook"
        )
    raise ValueError(
        f"no closed form covers {mu}; supply a complete table for its size"
    )


@dataclass(frozen=True)
class InductionReport:
    prefix: Partition
    n: int
    rhs: Fraction
    passed: bool
    min_slack: Fraction
    witness: tuple[Partition, int]


def verify_induction_step(prefix: Partition, n: int) -> InductionReport:
    """Check that no one-row growth of any lam != [n] increases the family
    eigenvalue by more than the growth at [n-1,1] does.

    The right-hand side is the increment at lam = [n-1,1], i = 1; the scan
    covers every partition of n except [n] and every admissible row.  The
    minimum-slack reduction is order-independent.
    """
    if n < max(prefix.n, 2):
        raise ValueError(f"induction step needs n >= {max(prefix.n, 2)}")
    expr = e_catalog(prefix)
    rhs = delta_eval(expr, Partition((n - 1, 1)), 1)
    best: tuple[Fraction, Partition, int] | None = None
    top = Partition((n,))
    for lam in generate_partitions(n):
        if lam == top:
            continue
        base_val = eval_expr(expr, lam)
        for lam_plus, i in successors(lam):
            slack = rhs - (eval_expr(expr, lam_plus) - base_val)
            if best is None or slack < best[0]:
                best = (slack, lam, i)
    assert best is not None
    slack, wl, wi = best
    return InductionReport(prefix, n, rhs, slack >= 0, slack, (wl, wi))


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
    assert vmax == double_factorial(2 * n - 2) and amax == Partition((n,))
    assert vmin == 1 and amin == Partition((1,) * n)
    return vmax, amax, vmin, amin
