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


class Partition:
    """A weakly decreasing tuple of positive integers.

    Partitions index relations, eigenspaces and cycle types alike; the
    canonical total order used throughout is descending lexicographic on the
    part sequence, so ``[n]`` comes first and ``[1^n]`` last.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {list(parts)}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {list(parts)}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def multiplicities(self) -> dict[int, int]:
        """Part value -> multiplicity, keys in decreasing part order."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def r1(self) -> int:
        """Number of parts equal to 1."""
        return sum(1 for p in self.parts if p == 1)

    def double(self) -> "Partition":
        """The partition with every part doubled."""
        return Partition(2 * p for p in self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return self
        return Partition(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )


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


@cache
def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in canonical order: descending lexicographic.

    ``[n]`` is first and ``[1^n]`` last; this order refines dominance.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (Partition(),)
    out = []
    r = (n,)
    while True:
        out.append(Partition(r))
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return tuple(out)
        rest = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while rest > 0:
            nxt = min(r[-1], rest)
            r += (nxt,)
            rest -= nxt


def partition_count(n: int) -> int:
    """p(n), counted without listing the partitions."""
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
    if a.parts == b.parts:
        return Dominance.EQUAL
    above = below = False
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a.parts[i] if i < len(a) else 0
        sb += b.parts[i] if i < len(b) else 0
        if sa > sb:
            above = True
        elif sa < sb:
            below = True
    if above and below:
        return Dominance.INCOMPARABLE
    return Dominance.GREATER if above else Dominance.LESS


class ContentVector:
    """Contents j - i of the boxes of the doubled shape 2*lam, reading order."""

    __slots__ = ("shape", "values")

    def __init__(self, shape: Partition, values: tuple[int, ...]):
        self.shape = shape
        self.values = values

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ContentVector)
            and self.shape == other.shape
            and self.values == other.values
        )

    def power_sum(self, k: int) -> int:
        """Sum of k-th powers of the contents (k = 0 counts the boxes)."""
        return sum(c**k for c in self.values)


def content(lam: Partition) -> ContentVector:
    """Content vector of the Young tableau of the doubled shape 2*lam."""
    shape = lam.double()
    values = []
    for i, row_len in enumerate(shape.parts, start=1):
        values.extend(j - i for j in range(1, row_len + 1))
    return ContentVector(shape, tuple(values))


def addable_rows(lam: Partition) -> list[int]:
    """Rows (1-based, ascending) where lam can grow by one box.

    Row i = len(lam) + 1 is a new row of length 1; growing row i >= 2 is
    admissible only when lam[i-2] > lam[i-1].
    """
    parts = lam.parts
    return [
        i
        for i in range(1, len(parts) + 2)
        if i == 1 or i == len(parts) + 1 or parts[i - 2] > parts[i - 1]
    ]


def successors(lam: Partition) -> list[tuple[Partition, int]]:
    """All partitions of n+1 reachable by growing one row, with the row
    index, in the order of ``addable_rows``."""
    parts = lam.parts
    out: list[tuple[Partition, int]] = []
    for i in addable_rows(lam):
        if i == len(parts) + 1:
            grown = parts + (1,)
        else:
            grown = parts[: i - 1] + (parts[i - 1] + 1,) + parts[i:]
        out.append((Partition(grown), i))
    return out


def _hook_product(shape: Partition) -> int:
    conj = shape.conjugate()
    h = 1
    for i, row_len in enumerate(shape.parts, start=1):
        for j in range(1, row_len + 1):
            h *= row_len - j + conj.parts[j - 1] - i + 1
    return h


@cache
def frobenius_dim(lam: Partition) -> int:
    """Dimension of the 2*lam eigenspace via the Frobenius determinant formula."""
    shape = lam.double()
    k = len(shape)
    if k == 0:
        return 1
    ells = [shape.parts[i] + k - 1 - i for i in range(k)]
    num = factorial(shape.n)
    for i in range(k):
        for j in range(i + 1, k):
            num *= ells[i] - ells[j]
    den = 1
    for e in ells:
        den *= factorial(e)
    if num % den:
        raise SchemeError(f"Frobenius formula gives a non-integer dimension for {lam}")
    return num // den


@cache
def dim_hook(lam: Partition) -> int:
    """f^{2*lam}: dimension of the eigenspace indexed by lam, hook length formula.

    Cross-checked against the Frobenius formula on every call (both are cached).
    """
    shape = lam.double()
    num = factorial(shape.n)
    den = _hook_product(shape)
    if num % den:
        raise SchemeError(f"hook formula gives a non-integer dimension for {lam}")
    f = num // den
    if f != frobenius_dim(lam):
        raise SchemeError(f"hook and Frobenius dimensions of {lam} disagree")
    return f


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
    cycles = tuple(sorted(cycle_type.parts, reverse=True))
    return _mn_char(shape.parts, cycles)


def z2(mu: Partition) -> int:
    """z_mu 2^len(mu) = prod of m! (2 v)^m over the part values v of mu with
    multiplicity m: the norm of p_mu under the zonal inner product, and
    2^n n! / valency(mu)."""
    out = 1
    for value, m in mu.multiplicities().items():
        out *= factorial(m) * (2 * value) ** m
    return out


def double_factorial(m: int) -> int:
    """m!! for m >= -1, with (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError("double factorial needs m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out

