"""Brute-force oracle over perfect matchings of K_{2n}.

Matchings are fixed-point-free involutions of {0, ..., 2n-1} stored as a
partner tuple; text and edge forms use 1-based vertices.  Enumeration pairs
the smallest unmatched vertex with each available partner in increasing
order, which also defines the mixed-radix rank/unrank bijection used by the
BFS diameter computation.  All counting loops are sequential and
deterministic; they could be sharded over rank ranges without changing any
result since every accumulation is an integer sum.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator

from .errors import GuardExceeded
from .partitions import (
    CycleType,
    Partition,
    double_factorial,
    generate_partitions,
)

DEFAULT_ORACLE_MAX_N = 8
DEFAULT_DIAMETER_MAX_N = 7


class Matching:
    """A perfect matching of K_{2n} as a partner involution."""

    __slots__ = ("partner",)

    def __init__(self, partner: Iterable[int]):
        partner = tuple(partner)
        m = len(partner)
        if m % 2 or not all(
            0 <= p < m and p != v and partner[p] == v for v, p in enumerate(partner)
        ):
            raise ValueError("not a fixed-point-free involution")
        object.__setattr__(self, "partner", partner)

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    @property
    def n(self) -> int:
        return len(self.partner) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.partner == other.partner

    def __hash__(self) -> int:
        return hash(self.partner)

    def edges(self) -> list[tuple[int, int]]:
        """1-based edge pairs (min, max), sorted by the smaller endpoint."""
        return [
            (v + 1, p + 1) for v, p in enumerate(self.partner) if v < p
        ]

    def to_text(self) -> str:
        return " | ".join(f"{a} {b}" for a, b in self.edges())

    def __repr__(self) -> str:
        return f"Matching({self.to_text()!r})"

    def apply(self, perm: tuple[int, ...]) -> "Matching":
        """Relabel vertices by a permutation of {0, ..., 2n-1}."""
        out = [0] * len(self.partner)
        for v, p in enumerate(self.partner):
            out[perm[v]] = perm[p]
        return Matching(out)


def parse_matching(text: str) -> Matching:
    """Parse the pipe form ``a1 a2 | a3 a4 | ...`` with 1-based vertices."""
    pairs = []
    for chunk in text.split("|"):
        nums = chunk.split()
        if len(nums) != 2:
            raise ValueError(f"bad matching block {chunk!r}")
        pairs.append((int(nums[0]), int(nums[1])))
    m = 2 * len(pairs)
    partner = [-1] * m
    for a, b in pairs:
        if not (1 <= a <= m and 1 <= b <= m) or partner[a - 1] != -1 or partner[b - 1] != -1 or a == b:
            raise ValueError(f"vertices out of range or repeated in {text!r}")
        partner[a - 1] = b - 1
        partner[b - 1] = a - 1
    return Matching(partner)


def base_matching(n: int) -> Matching:
    """The matching 1 2 | 3 4 | ... | 2n-1 2n."""
    return Matching(_base_partner(n))


def _base_partner(n: int) -> tuple[int, ...]:
    out = []
    for i in range(n):
        out.extend((2 * i + 1, 2 * i))
    return tuple(out)


def _guard_enumeration(what: str, n: int, max_n: int) -> None:
    if not 1 <= n <= max_n:
        raise GuardExceeded(
            f"{what} guarded to 1 <= n <= {max_n} (asked {n})",
            estimate=f"(2n-1)!! = {double_factorial(2 * n - 1)} matchings",
        )


def _iter_partners(n: int) -> Iterator[tuple[int, ...]]:
    m = 2 * n
    partner = [-1] * m

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        u = start
        while u < m and partner[u] != -1:
            u += 1
        if u == m:
            yield tuple(partner)
            return
        for v in range(u + 1, m):
            if partner[v] == -1:
                partner[u] = v
                partner[v] = u
                yield from rec(u + 1)
                partner[u] = -1
                partner[v] = -1

    yield from rec(0)


def enumerate_matchings(n: int, max_n: int = 9) -> Iterator[Matching]:
    """All (2n-1)!! matchings, smallest-unmatched-vertex order."""
    _guard_enumeration("matching enumeration", n, max_n)
    for partner in _iter_partners(n):
        yield Matching(partner)


def _relation_parts(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    m = len(p)
    seen = bytearray(m)
    parts = []
    for v0 in range(m):
        if seen[v0]:
            continue
        length = 0
        v = v0
        while not seen[v]:
            seen[v] = 1
            w = p[v]
            seen[w] = 1
            v = q[w]
            length += 1
        parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


def relation(p: Matching, q: Matching) -> CycleType:
    """Half-lengths of the cycles of the union of two matchings, sorted."""
    if len(p.partner) != len(q.partner):
        raise ValueError("matchings must cover the same vertex set")
    return Partition(_relation_parts(p.partner, q.partner))


def representative(mu: Partition) -> Matching:
    """A matching whose relation to the base matching is mu, built blockwise."""
    partner = list(_base_partner(mu.n))
    offset = 0
    for part in mu.parts:
        block = list(range(offset, offset + 2 * part))
        for idx in range(part):
            a = block[(2 * idx + 1) % (2 * part)]
            b = block[(2 * idx + 2) % (2 * part)]
            partner[a] = b
            partner[b] = a
        offset += 2 * part
    return Matching(partner)


def rank(matching: Matching) -> int:
    """Mixed-radix rank in the enumeration order."""
    return _rank_partner(matching.partner)


def unrank(r: int, n: int) -> Matching:
    """Inverse of rank for matchings of K_{2n}."""
    total = double_factorial(2 * n - 1)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range for n={n}")
    m = 2 * n
    radices = [m - 1 - 2 * i for i in range(n)]
    digits = []
    for base in reversed(radices):
        digits.append(r % base)
        r //= base
    digits.reverse()
    alive = list(range(m))
    partner = [-1] * m
    for digit in digits:
        u = alive.pop(0)
        v = alive.pop(digit)
        partner[u] = v
        partner[v] = u
    return Matching(partner)


class IntersectionData:
    """Relations, representatives and intersection numbers of the scheme.

    relations are in canonical descending order; p[k][i][j] counts matchings
    R with relation(base, R) = relations[i] and relation(R, rep[k]) =
    relations[j].
    """

    __slots__ = ("n", "relations", "reps", "p", "valencies")

    def __init__(self, n, relations, reps, p, valencies):
        self.n = n
        self.relations = relations
        self.reps = reps
        self.p = p
        self.valencies = valencies

    def index(self, mu: Partition) -> int:
        return self.relations.index(mu)

    def b_matrix(self, i: int) -> list[list[int]]:
        """Intersection matrix of relation i: entry (k, j) is p[k][i][j]."""
        d = len(self.relations)
        return [[self.p[k][i][j] for j in range(d)] for k in range(d)]


def intersection_numbers(n: int, max_n: int = DEFAULT_ORACLE_MAX_N) -> IntersectionData:
    """Classify every matching against the base matching and one
    representative per relation, accumulating the full p table."""
    if not 1 <= n <= max_n:
        raise GuardExceeded(
            f"intersection numbers guarded to n <= {max_n} (asked {n})",
            estimate=f"{double_factorial(2 * n - 1)} matchings x {len(generate_partitions(n))} relations",
        )
    relations = list(generate_partitions(n))
    index = {mu.parts: i for i, mu in enumerate(relations)}
    d = len(relations)
    reps = [representative(mu) for mu in relations]
    base = _base_partner(n)
    for mu, rep in zip(relations, reps):
        assert _relation_parts(base, rep.partner) == mu.parts
    rep_partners = [rep.partner for rep in reps]
    p = [[[0] * d for _ in range(d)] for _ in range(d)]
    for r in _iter_partners(n):
        i = index[_relation_parts(base, r)]
        for k in range(d):
            j = index[_relation_parts(r, rep_partners[k])]
            p[k][i][j] += 1
    valencies = [sum(p[0][i]) for i in range(d)]
    for k in range(d):
        for i in range(d):
            assert sum(p[k][i]) == valencies[i], "row sums must be valencies"
    return IntersectionData(n, relations, reps, p, valencies)


class QuotientMatrix:
    """Counts behind the 2x2 quotient on matchings containing the edge {1,2}."""

    __slots__ = ("mu", "a", "b", "valency")

    def __init__(self, mu: Partition, a: int, b: int, valency: int):
        if not (0 <= a <= valency and 0 <= b <= valency):
            raise ValueError("quotient counts out of range")
        self.mu = mu
        self.a = a
        self.b = b
        self.valency = valency

    def matrix(self) -> list[list[int]]:
        return [[self.a, self.valency - self.a], [self.b, self.valency - self.b]]

    def eigenvalues(self) -> tuple[int, int]:
        return (self.valency, self.a - self.b)


def _pm12_iter(n: int) -> Iterator[tuple[int, ...]]:
    """Matchings containing the edge {1,2} (0-based edge (0,1))."""
    for partner in _iter_partners(n):
        if partner[0] == 1:
            yield partner


def _first_outside_pm12(n: int) -> tuple[int, ...]:
    # 0 pairs with 2, the rest minimal: 1-3, then 4-5, 6-7, ...
    partner = [-1] * (2 * n)
    partner[0], partner[2] = 2, 0
    partner[1], partner[3] = 3, 1
    for i in range(2, n):
        partner[2 * i], partner[2 * i + 1] = 2 * i + 1, 2 * i
    return tuple(partner)


def quotient_counts_all(
    n: int, max_n: int = DEFAULT_ORACLE_MAX_N
) -> dict[Partition, QuotientMatrix]:
    """QuotientMatrix for every relation of K_{2n} in one enumeration pass."""
    if not 2 <= n <= max_n:
        raise GuardExceeded(
            f"quotient counts guarded to 2 <= n <= {max_n} (asked {n})",
            estimate=f"{double_factorial(2 * n - 3)} matchings through the fixed edge",
        )
    base = _base_partner(n)
    outside = _first_outside_pm12(n)
    a_counts: dict[tuple[int, ...], int] = {}
    b_counts: dict[tuple[int, ...], int] = {}
    for q in _pm12_iter(n):
        ta = _relation_parts(base, q)
        a_counts[ta] = a_counts.get(ta, 0) + 1
        tb = _relation_parts(outside, q)
        b_counts[tb] = b_counts.get(tb, 0) + 1
    degrees = degree_histogram(n, max_n=max_n)
    out = {}
    for mu in generate_partitions(n):
        a = a_counts.get(mu.parts, 0)
        b = b_counts.get(mu.parts, 0)
        out[mu] = QuotientMatrix(mu, a, b, degrees.get(mu, 0))
    return out


def quotient_counts(mu: Partition, max_n: int = DEFAULT_ORACLE_MAX_N) -> QuotientMatrix:
    """Counted quotient data for one relation."""
    return quotient_counts_all(mu.n, max_n=max_n)[mu]


def quotient_counts_from(
    p: Matching, max_n: int = DEFAULT_ORACLE_MAX_N
) -> dict[Partition, int]:
    """Relation histogram of the matchings through edge {1,2} as seen from p.

    Used to confirm that the two-block partition really is equitable: the
    histogram must not depend on which matching of a block p is.
    """
    n = p.n
    _guard_enumeration("quotient histogram", n, max_n)
    counts: dict[tuple[int, ...], int] = {}
    for q in _pm12_iter(n):
        t = _relation_parts(p.partner, q)
        counts[t] = counts.get(t, 0) + 1
    return {Partition(t): c for t, c in counts.items()}


def degree_histogram(n: int, max_n: int = DEFAULT_ORACLE_MAX_N) -> dict[Partition, int]:
    """Relation histogram of all matchings against the base matching."""
    _guard_enumeration("degree histogram", n, max_n)
    return _degree_histogram(n)


@cache
def _degree_histogram(n: int) -> dict[Partition, int]:
    base = _base_partner(n)
    counts: dict[tuple[int, ...], int] = {}
    for r in _iter_partners(n):
        t = _relation_parts(base, r)
        counts[t] = counts.get(t, 0) + 1
    return {Partition(t): c for t, c in counts.items()}


def degree_count(mu: Partition, max_n: int = DEFAULT_ORACLE_MAX_N) -> int:
    """Number of matchings mu-related to the base matching, by enumeration."""
    return degree_histogram(mu.n, max_n=max_n).get(mu, 0)


class DiameterResult:
    __slots__ = ("mu", "connected", "diameter", "reached", "n_vertices")

    def __init__(self, mu, connected, diameter, reached, n_vertices):
        self.mu = mu
        self.connected = connected
        self.diameter = diameter
        self.reached = reached
        self.n_vertices = n_vertices

    def __repr__(self) -> str:
        if self.connected:
            return f"DiameterResult({self.mu}, diameter={self.diameter})"
        return (
            f"DiameterResult({self.mu}, disconnected, "
            f"reached {self.reached} of {self.n_vertices})"
        )


def _perm_to(q: tuple[int, ...]) -> tuple[int, ...]:
    """A vertex permutation sending the base matching onto q.

    The sorted edge list of the base matching is mapped endpoint-wise onto
    the sorted edge list of q; any such permutation works because neighbor
    sets are orbit-defined.
    """
    perm = [0] * len(q)
    pos = 0
    for v, p in enumerate(q):
        if v < p:
            perm[pos] = v
            perm[pos + 1] = p
            pos += 2
    return tuple(perm)


def diameter(mu: Partition, max_n: int = DEFAULT_DIAMETER_MAX_N) -> DiameterResult:
    """Eccentricity of the base matching in the relation graph by BFS.

    The graph is vertex-transitive, so this equals the diameter.  Neighbors
    of a vertex q are sigma(N0) where N0 is the precomputed neighbor list of
    the base matching and sigma maps the base matching onto q.
    """
    n = mu.n
    if not 1 <= n <= max_n:
        raise GuardExceeded(
            f"diameter BFS guarded to n <= {max_n} (asked {n})",
            estimate=f"one visited byte per vertex: {double_factorial(2 * n - 1)} bytes",
        )
    m = 2 * n
    n_vertices = double_factorial(2 * n - 1)
    base = _base_partner(n)
    target = mu.parts
    neighbors0 = [
        r for r in _iter_partners(n) if _relation_parts(base, r) == target
    ]
    visited = bytearray(n_vertices)
    start = Matching(base)
    visited[rank(start)] = 1
    frontier = [base]
    reached = 1
    depth = 0
    while frontier:
        nxt = []
        for q in frontier:
            perm = _perm_to(q)
            for r in neighbors0:
                image = [0] * m
                for v in range(m):
                    image[perm[v]] = perm[r[v]]
                key = _rank_partner(image)
                if not visited[key]:
                    visited[key] = 1
                    reached += 1
                    nxt.append(tuple(image))
        if not nxt:
            break
        depth += 1
        frontier = nxt
    if reached == n_vertices:
        return DiameterResult(mu, True, depth, reached, n_vertices)
    return DiameterResult(mu, False, None, reached, n_vertices)


def _rank_partner(partner) -> int:
    m = len(partner)
    alive = list(range(m))
    r = 0
    while alive:
        u = alive.pop(0)
        v = partner[u]
        digit = alive.index(v)
        r = r * len(alive) + digit
        alive.remove(v)
    return r
