"""Brute-force oracle over perfect matchings of K_{2n}.

Matchings are fixed-point-free involutions of {0, ..., 2n-1} stored as a
partner tuple; text and edge forms use 1-based vertices.  Enumeration pairs
the smallest unmatched vertex with each available partner in increasing
order, which also defines the mixed-radix rank/unrank bijection used to
sample matchings.  Every count (intersection numbers, degree and quotient
histograms) comes from one depth-first enumeration that grows the union of
each reference matching with the partial matching edge by edge, so no
finished union is walked again.
"""

from __future__ import annotations

from functools import cache
from math import lgamma, log, pi, sqrt
from typing import Iterable, Iterator

from .errors import GuardExceeded, SchemeError
from .partitions import (
    Partition,
    double_factorial,
    generate_partitions,
    partition_count,
)

DEFAULT_ORACLE_MAX_N = 8


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


def _guard_enumeration(what: str, n: int, max_n: int = DEFAULT_ORACLE_MAX_N) -> None:
    """Refuse n outside 1..max_n before any matching is enumerated; the
    estimate sizes the scheme without listing its relations."""
    if n < 1:
        raise GuardExceeded(f"{what} guarded to n >= 1 (asked {n})")
    if n > max_n:
        raise GuardExceeded(
            f"{what} guarded to n <= {max_n} (asked {n})", estimate=_size_estimate(n)
        )


def _size_estimate(n: int) -> str:
    """'(2n-1)!! matchings x p(n) relations', each count exact below 10^20
    and given as its power of ten above.  The powers come from log-gamma and
    the Hardy-Ramanujan asymptotic p(n) ~ exp(pi sqrt(2n/3)) / (4 n sqrt 3),
    so no long count is built; these floats size a message, not a verdict."""
    log_m = (lgamma(2 * n + 1) - lgamma(n + 1) - n * log(2)) / log(10)
    log_r = (pi * sqrt(2 * n / 3) - log(4 * n * sqrt(3))) / log(10)
    matchings = double_factorial(2 * n - 1) if log_m < 20 else f"about 10^{log_m:.0f}"
    relations = partition_count(n) if log_r < 20 else f"about 10^{log_r:.0f}"
    return f"{matchings} matchings x {relations} relations"


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


def enumerate_matchings(n: int) -> Iterator[Matching]:
    """All (2n-1)!! matchings, smallest-unmatched-vertex order."""
    _guard_enumeration("matching enumeration", n)
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


def relation(p: Matching, q: Matching) -> Partition:
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
    partner = matching.partner
    alive = list(range(len(partner)))
    r = 0
    while alive:
        u = alive.pop(0)
        v = partner[u]
        r = r * len(alive) + alive.index(v)
        alive.remove(v)
    return r


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


@cache
def _cycle_codes(n: int):
    """Integer codes for the multisets of cycle half-lengths closed so far.

    Codes 0..d-1 are the relations of K_{2n} in canonical order; the partial
    multisets (sum below n) follow.  ``add[c][h]`` closes one more cycle of
    half-length h and ``sub`` undoes it.  With ``rem`` q-edges still on open
    paths, ``close[c]`` closes the single path left (``close[c] = c`` when
    nothing is open) and ``split[c][h]`` closes two paths carrying h and
    rem - h q-edges.
    """
    states = [mu.parts for mu in generate_partitions(n)] + [()]
    for s in range(1, n):
        states.extend(mu.parts for mu in generate_partitions(s))
    code = {t: c for c, t in enumerate(states)}
    add = [[-1] * (n + 1) for _ in states]
    sub = [[-1] * (n + 1) for _ in states]
    for c, t in enumerate(states):
        for h in range(1, n - sum(t) + 1):
            grown = code[tuple(sorted(t + (h,), reverse=True))]
            add[c][h] = grown
            sub[grown][h] = c
    close, split = [], []
    for c, t in enumerate(states):
        rem = n - sum(t)
        close.append(add[c][rem] if rem else c)
        split.append([add[add[c][h]][rem - h] if 0 < h < rem else -1 for h in range(n + 1)])
    return code[()], add, sub, close, split


def _union_counts(
    refs: list[tuple[int, ...]], first_edge: tuple[int, int] | None = None
) -> list[list[list[int]]]:
    """Joint relation counts over all matchings r, by one enumeration.

    ``counts[t][i][j]`` is the number of matchings r (through ``first_edge``
    when given) with relation(refs[-1], r) = relations[i] and
    relation(refs[t], r) = relations[j], relations in canonical order.

    For each reference q, the union of q with the partial matching is a set
    of closed cycles plus open paths whose two ends are the free vertices.
    ``ends[f]`` is the other end of free vertex f's path, ``qcount[f]`` the
    number of q-edges on it, and ``qcount[m]`` the code of the closed cycles.
    Placing edge (u, v) closes u's path into a cycle when v is its other end
    and otherwise joins the two paths; undoing it restores both far ends from
    ``ends[u]`` and ``ends[v]``, which placing leaves untouched.  With four
    free vertices left, the three completions are counted at once: pairing u
    with the far end of its path closes two cycles, the other two partners
    close one cycle through all the q-edges left.
    """
    m = len(refs[0])
    d = len(generate_partitions(m // 2))
    empty, add, sub, close, split = _cycle_codes(m // 2)
    tracks = [(list(q), [1] * m + [empty]) for q in refs]
    counts = [[[0] * d for _ in range(d)] for _ in refs]
    rows = list(zip(tracks, counts))
    base_ends, base_qcount = tracks[-1]

    def place(u: int, v: int) -> None:
        for ends, qcount in tracks:
            a = ends[u]
            if a == v:
                qcount[m] = add[qcount[m]][qcount[u]]
            else:
                b = ends[v]
                length = qcount[u] + qcount[v]
                ends[a], ends[b] = b, a
                qcount[a] = qcount[b] = length

    def unplace(u: int, v: int) -> None:
        for ends, qcount in tracks:
            a = ends[u]
            if a == v:
                qcount[m] = sub[qcount[m]][qcount[u]]
            else:
                b = ends[v]
                ends[a], ends[b] = u, v
                qcount[a], qcount[b] = qcount[u], qcount[v]

    def walk(free: tuple[int, ...]) -> None:
        if len(free) <= 2:
            i = close[base_qcount[m]]
            for (_, qcount), pk in rows:
                pk[i][close[qcount[m]]] += 1
            return
        u = free[0]
        if len(free) == 4:
            c = base_qcount[m]
            x0, split0, merged0 = base_ends[u], split[c][base_qcount[u]], close[c]
            for (ends, qcount), pk in rows:
                c = qcount[m]
                split_j, merged_j = split[c][qcount[u]], close[c]
                row = pk[merged0]
                if ends[u] == x0:
                    pk[split0][split_j] += 1
                    row[merged_j] += 2
                else:
                    pk[split0][merged_j] += 1
                    row[split_j] += 1
                    row[merged_j] += 1
            return
        rest = free[1:]
        for k, v in enumerate(rest):
            place(u, v)
            walk(rest[:k] + rest[k + 1:])
            unplace(u, v)

    free = tuple(range(m))
    if first_edge is not None:
        place(*first_edge)
        free = tuple(w for w in free if w not in first_edge)
    walk(free)
    return counts


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
    """Count p[k][i][j] over all (2n-1)!! matchings in one enumeration.

    One incremental counter per representative (the base matching is the
    representative of [1^n]) follows how its union with the partial
    matching grows: each placed edge joins two open paths or closes a
    cycle of known half-length in O(1) and is undone on backtracking, so
    no finished union is walked.  See ``_union_counts``.
    """
    _guard_enumeration("intersection numbers", n, max_n)
    relations = list(generate_partitions(n))
    d = len(relations)
    reps = [representative(mu) for mu in relations]
    base = _base_partner(n)
    for mu, rep in zip(relations, reps):
        if _relation_parts(base, rep.partner) != mu.parts:
            raise SchemeError(f"representative {rep} is not in relation {mu}")
    p = _union_counts([rep.partner for rep in reps])
    valencies = [sum(p[0][i]) for i in range(d)]
    for k in range(d):
        for i in range(d):
            if sum(p[k][i]) != valencies[i]:
                raise SchemeError(f"row sum p[{k}][{i}] is not the valency")
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


def _first_outside_pm12(n: int) -> tuple[int, ...]:
    # 0 pairs with 2, the rest minimal: 1-3, then 4-5, 6-7, ...
    partner = [-1] * (2 * n)
    partner[0], partner[2] = 2, 0
    partner[1], partner[3] = 3, 1
    for i in range(2, n):
        partner[2 * i], partner[2 * i + 1] = 2 * i + 1, 2 * i
    return tuple(partner)


def quotient_counts_all(n: int) -> dict[Partition, QuotientMatrix]:
    """QuotientMatrix for every relation of K_{2n} in one enumeration pass."""
    if n < 2:
        raise ValueError(f"quotient counts need n >= 2, got {n}")
    a_counts = quotient_counts_from(base_matching(n))
    b_counts = quotient_counts_from(Matching(_first_outside_pm12(n)))
    degrees = degree_histogram(n)
    return {
        mu: QuotientMatrix(
            mu, a_counts.get(mu, 0), b_counts.get(mu, 0), degrees.get(mu, 0)
        )
        for mu in generate_partitions(n)
    }


def quotient_counts_from(p: Matching) -> dict[Partition, int]:
    """Relation histogram of the matchings through edge {1,2} as seen from p.

    Used to confirm that the two-block partition really is equitable: the
    histogram must not depend on which matching of a block p is.
    """
    n = p.n
    _guard_enumeration("quotient histogram", n)
    return _histogram(_union_counts([p.partner], first_edge=(0, 1))[0], n)


def degree_histogram(n: int) -> dict[Partition, int]:
    """Relation histogram of all matchings against the base matching."""
    _guard_enumeration("degree histogram", n)
    return _degree_histogram(n)


@cache
def _degree_histogram(n: int) -> dict[Partition, int]:
    return _histogram(_union_counts([_base_partner(n)])[0], n)


def _histogram(counts: list[list[int]], n: int) -> dict[Partition, int]:
    """The nonzero diagonal of a one-reference count, keyed by relation."""
    return {
        mu: counts[i][i] for i, mu in enumerate(generate_partitions(n)) if counts[i][i]
    }
