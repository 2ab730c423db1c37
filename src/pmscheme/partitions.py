"""Integer partitions, dominance order, tableau contents, dimensions and characters.

Everything here is exact integer arithmetic.  All functions are pure; the
character memo table is only ever extended with deterministic values, so
concurrent use is safe.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from math import factorial
from typing import Iterable, Iterator

from .errors import SchemeError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Partitions index relations, eigenspaces and cycle types alike; the
    canonical total order used throughout is descending lexicographic on the
    part sequence, so ``[n]`` comes first and ``[1^n]`` last.  A partition is
    a tuple: it hashes, compares and orders as its parts, so it equals the
    plain tuple of its parts.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        self = super().__new__(cls, map(int, parts))
        for a, b in zip(self, self[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {list(self)}")
        if self and self[-1] < 1:
            raise ValueError(f"parts must be positive: {list(self)}")
        return self

    @property
    def parts(self) -> "Partition":
        """The partition itself, which is the tuple; code here reads it directly."""
        return self

    @property
    def n(self) -> int:
        return sum(self)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def multiplicities(self) -> dict[int, int]:
        """Part value -> multiplicity, keys in decreasing part order."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def r1(self) -> int:
        """Number of parts equal to 1."""
        return sum(1 for p in self if p == 1)

    def double(self) -> "Partition":
        """The partition with every part doubled."""
        return Partition(2 * p for p in self)


_PART_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str) -> Partition:
    """Parse ``[a,b,c]`` with optional exponent sugar ``a^m``, e.g. ``[2,1^3]``.

    Whitespace is ignored; the expanded part list must be weakly decreasing.
    """
    s = "".join(text.split())
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must be bracketed: {text!r}")
    inner = s[1:-1]
    if not inner:
        return Partition()
    parts: list[int] = []
    for tok in inner.split(","):
        m = _PART_TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad partition token {tok!r} in {text!r}")
        val = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if val < 1 or count < 1:
            raise ValueError(f"bad partition token {tok!r} in {text!r}")
        parts.extend([val] * count)
    return Partition(parts)


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in canonical order, descending lexicographic,
    one at a time and uncached: scans over every partition of a large n
    iterate these and keep none of them.

    ``[n]`` is first and ``[1^n]`` last; this order refines dominance.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield Partition()
        return
    r = (n,)
    while True:
        yield Partition(r)
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return
        rest = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while rest > 0:
            nxt = min(r[-1], rest)
            r += (nxt,)
            rest -= nxt


@cache
def generate_partitions(n: int) -> tuple[Partition, ...]:
    """``iter_partitions(n)`` as a tuple, cached for the life of the process."""
    return tuple(iter_partitions(n))


@cache
def partition_count(n: int) -> int:
    """p(n), counted without listing the partitions, and cached."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


class Dominance(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominance_compare(a: Partition, b: Partition) -> Dominance:
    """Compare prefix sums with zero padding; requires equal sizes."""
    if a.n != b.n:
        raise ValueError(f"cannot compare partitions of {a.n} and {b.n}")
    if a == b:
        return Dominance.EQUAL
    above = below = False
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            above = True
        elif sa < sb:
            below = True
    if above and below:
        return Dominance.INCOMPARABLE
    return Dominance.GREATER if above else Dominance.LESS


class ContentVector(tuple):
    """Contents j - i of the boxes of the doubled shape 2*lam, reading order,
    as a tuple equal to the plain tuple of them (they fix the shape: row i
    starts at content 1 - i, below where row i - 1 ended)."""

    __slots__ = ()

    @property
    def values(self) -> "ContentVector":
        """The vector itself, which is the tuple; code here reads it directly."""
        return self

    def power_sum(self, k: int) -> int:
        """Sum of k-th powers of the contents (k = 0 counts the boxes)."""
        return sum(c**k for c in self)


def content(lam: Partition) -> ContentVector:
    """Content vector of the Young tableau of the doubled shape 2*lam."""
    values = []
    for i, row_len in enumerate(lam.double(), start=1):
        values.extend(j - i for j in range(1, row_len + 1))
    return ContentVector(values)


def addable_rows(lam: Partition) -> list[int]:
    """Rows (1-based, ascending) where lam can grow by one box.

    Row i = len(lam) + 1 is a new row of length 1; growing row i >= 2 is
    admissible only when lam[i-2] > lam[i-1].
    """
    return [
        i
        for i in range(1, len(lam) + 2)
        if i == 1 or i == len(lam) + 1 or lam[i - 2] > lam[i - 1]
    ]


def successors(lam: Partition) -> list[tuple[Partition, int]]:
    """All partitions of n+1 reachable by growing one row, with the row
    index, in the order of ``addable_rows``."""
    out: list[tuple[Partition, int]] = []
    for i in addable_rows(lam):
        if i == len(lam) + 1:
            grown = lam + (1,)
        else:
            grown = lam[: i - 1] + (lam[i - 1] + 1,) + lam[i:]
        out.append((Partition(grown), i))
    return out


def _frobenius(lam: Partition) -> int:
    """f^{2*lam} by the Frobenius determinant formula: the reference the
    tests hold ``eigenspace_dim`` to."""
    k = len(lam)
    if k == 0:
        return 1
    ells = [2 * p + k - 1 - i for i, p in enumerate(lam)]
    num = factorial(2 * sum(lam))
    for i in range(k):
        for j in range(i + 1, k):
            num *= ells[i] - ells[j]
    den = 1
    for e in ells:
        den *= factorial(e)
    if num % den:
        raise SchemeError(f"Frobenius formula gives a non-integer dimension for {lam}")
    return num // den


frobenius_dim = cache(_frobenius)


def eigenspace_dim(lam: Partition) -> int:
    """f^{2*lam}, the dimension of the eigenspace indexed by lam, by the hook
    length formula; uncached, for scans over every partition of a large n.
    Columns 2c and 2c + 1 of 2*lam are as tall as column c of lam, heights[c]:
    the hooks of cells (i, 2c) and (i, 2c + 1) (from 0) are x and x - 1, with
    x = 2 lam_i - 2c + heights[c] - i - 1.  SchemeError unless they divide (2n)!."""
    heights: list[int] = []
    for i in range(len(lam), 0, -1):
        heights += [i] * (lam[i - 1] - len(heights))
    h = 1
    for i, row in enumerate(lam):
        top = 2 * row - i - 1
        for c in range(row):
            x = top - 2 * c + heights[c]
            h *= x * (x - 1)
    num = factorial(2 * sum(lam))
    if num % h:
        raise SchemeError(f"hook formula gives a non-integer dimension for {lam}")
    return num // h


@cache
def dim_hook(lam: Partition) -> int:
    """``eigenspace_dim(lam)``, cached for the life of the process."""
    return eigenspace_dim(lam)


@cache
def _mn_char(shape: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on (shape, remaining cycles).

    Rim hooks are located through the beta-set of the shape: removing a rim
    hook of length r moves one beta number down by r, and the sign is (-1)
    to the number of beta values jumped over.
    """
    if not cycles:
        return 1
    r = cycles[0]
    rest = cycles[1:]
    k = len(shape)
    betas = [shape[i] + k - 1 - i for i in range(k)]
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_shape = tuple(
            nbv - (k - 1 - i) for i, nbv in enumerate(new_betas)
        )
        while new_shape and new_shape[-1] == 0:
            new_shape = new_shape[:-1]
        total += (-1) ** height * _mn_char(new_shape, rest)
    return total


def irr_char(shape: Partition, cycle_type: Partition) -> int:
    """Irreducible symmetric group character chi^shape at a given cycle type."""
    if shape.n != cycle_type.n:
        raise ValueError(
            f"shape is a partition of {shape.n} but cycle type one of {cycle_type.n}"
        )
    cycles = tuple(sorted(cycle_type, reverse=True))
    return _mn_char(shape, cycles)


def z2(mu: Partition) -> int:
    """z_mu 2^len(mu) = prod of m! (2 v)^m over the part values v of mu with
    multiplicity m: the norm of p_mu under the zonal inner product, and
    2^n n! / valency(mu)."""
    out = 1
    for value, m in mu.multiplicities().items():
        out *= factorial(m) * (2 * value) ** m
    return out


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


def double_factorial(m: int) -> int:
    """m!! for m >= -1, with (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out

