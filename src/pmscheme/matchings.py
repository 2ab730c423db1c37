"""Brute-force oracle over perfect matchings of K_{2n}.

Matchings are fixed-point-free involutions of {0, ..., 2n-1} stored as a
partner tuple; text and edge forms use 1-based vertices.  Enumeration pairs
the smallest unmatched vertex with each available partner in increasing
order, which also defines the mixed-radix rank/unrank bijection used to
sample matchings.  Every count (intersection numbers, degree and quotient
histograms) comes from one depth-first enumeration that grows the union of
each reference matching with the partial matching edge by edge, so no
finished union is walked again.  The enumeration stops with six vertices
free and counts their 15 completions at once from a table of how each
completion closes the three open paths; every matching is still counted.
Intersection numbers are counted when first read: the walk for the class
matrix of one relation prunes every branch that cannot end in that relation
to the base, so its cost follows that class's size rather than (2n-1)!!,
and the full tensor, all (2n-1)!! matchings, is counted only when
``IntersectionData.p`` is read.  A class matrix is also kept column by
column (``IntersectionData.columns``), the form the character check reads.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal, localcontext
from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import PI, SchemeError, count_text, guard, ln_factorial
from .partitions import (
    Partition,
    double_factorial,
    generate_partitions,
    partition_count,
    valency,
)

DEFAULT_ORACLE_MAX_N = 8


class Matching(tuple):
    """A perfect matching of K_{2n} as a partner involution: the tuple of
    partners, equal to that plain tuple."""

    __slots__ = ()

    def __new__(cls, partner: Iterable[int]):
        self = super().__new__(cls, partner)
        m = len(self)
        if m % 2 or not all(
            0 <= p < m and p != v and self[p] == v for v, p in enumerate(self)
        ):
            raise ValueError("not a fixed-point-free involution")
        return self

    @property
    def partner(self) -> "Matching":
        """The matching itself, which is the tuple; code here reads it directly."""
        return self

    @property
    def n(self) -> int:
        return len(self) // 2

    def edges(self) -> list[tuple[int, int]]:
        """1-based edge pairs (min, max), sorted by the smaller endpoint."""
        return [
            (v + 1, p + 1) for v, p in enumerate(self) if v < p
        ]

    def to_text(self) -> str:
        return " | ".join(f"{a} {b}" for a, b in self.edges())

    def __repr__(self) -> str:
        return f"Matching({self.to_text()!r})"

    def apply(self, perm: tuple[int, ...]) -> "Matching":
        """Relabel vertices by a permutation of {0, ..., 2n-1}."""
        out = [0] * len(self)
        for v, p in enumerate(self):
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
    guard(what, n, max_n, lo=1, estimate=_size_estimate)


def _size_estimate(n: int) -> str:
    """'(2n-1)!! matchings x p(n) relations', each count from its logarithm:
    Stirling's series for (2n-1)!! = (2n)! / (2^n n!) and the
    Hardy-Ramanujan asymptotic p(n) ~ exp(pi sqrt(2n/3)) / (4 n sqrt 3)."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(n)
        ln_m = ln_factorial(2 * n) - x * Decimal(2).ln() - ln_factorial(n)
        ln_r = PI * (2 * x / 3).sqrt() - (4 * x * Decimal(3).sqrt()).ln()
    matchings = count_text(ln_m, lambda: double_factorial(2 * n - 1))
    relations = count_text(ln_r, lambda: partition_count(n))
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
    if len(p) != len(q):
        raise ValueError("matchings must cover the same vertex set")
    return Partition(_relation_parts(p, q))


def representative(mu: Partition) -> Matching:
    """A matching whose relation to the base matching is mu, built blockwise."""
    partner = list(_base_partner(mu.n))
    offset = 0
    for part in mu:
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
    alive = list(range(len(matching)))
    r = 0
    while alive:
        u = alive.pop(0)
        v = matching[u]
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

    ``states[c]`` is the multiset of code c as descending parts.  Codes
    0..d-1 are the relations of K_{2n} in canonical order; the partial
    multisets (sum below n) follow.  ``add[c][h]`` closes one more cycle of
    half-length h and ``sub`` undoes it.  With ``rem`` q-edges still on open
    paths, ``close[c]`` closes one cycle through all of them (``close[c] = c``
    when nothing is open).
    """
    states = [*generate_partitions(n), ()]
    for s in range(1, n):
        states.extend(generate_partitions(s))
    code = {t: c for c, t in enumerate(states)}
    add = [[-1] * (n + 1) for _ in states]
    sub = [[-1] * (n + 1) for _ in states]
    for c, t in enumerate(states):
        for h in range(1, n - sum(t) + 1):
            grown = code[tuple(sorted(t + (h,), reverse=True))]
            add[c][h] = grown
            sub[grown][h] = c
    close = [add[c][n - sum(t)] if sum(t) < n else c for c, t in enumerate(states)]
    return states, code[()], add, sub, close


@cache
def _completion_table():
    """How the 15 completions of six free vertices close three open paths.

    A pairing of the positions 0..5 is keyed by ``36 e0 + 6 e1 + e2``, where
    e0, e1 and e2 are the partners of positions 0, 1 and 2, which fix the
    rest.  Its three pairs are paths 0, 1 and 2 in the order of their
    smallest positions, and ``pairing[key]`` is ``(t, r1, r2)``: t is the
    pairing's index in the order of ``_iter_partners(3)``, r1 and r2 are
    the smallest positions of paths 1 and 2.  A completion joins the paths
    into cycles by one of five patterns: 0 = {0}{1}{2}, 1 = {0,1}{2},
    2 = {0,2}{1}, 3 = {1,2}{0}, 4 = {0,1,2}.  For a base pairing Q and a
    reference pairing P, ``leaf[15 Q + P]`` lists each (pattern under Q,
    pattern under P, number of completions) that occurs, found by joining
    each pairing's paths along the edges of each completion.
    """
    pairings = list(_iter_partners(3))
    pairing = [None] * 216
    labels = []
    for t, e in enumerate(pairings):
        label = [-1] * 6
        first = []
        for v in range(6):
            if label[v] == -1:
                label[v] = label[e[v]] = len(first)
                first.append(v)
        pairing[36 * e[0] + 6 * e[1] + e[2]] = (t, first[1], first[2])
        labels.append(label)

    def pattern(label, completion):
        """The pattern by which completion joins the paths labelled 0..2."""
        root = [0, 1, 2]
        for v, w in enumerate(completion):
            a, b = root[label[v]], root[label[w]]
            root = [a if r == b else r for r in root]
        if root[0] == root[1]:
            return 4 if root[1] == root[2] else 1
        return 2 if root[0] == root[2] else 3 if root[1] == root[2] else 0

    patterns = [[pattern(label, c) for c in pairings] for label in labels]
    shared = {}  # one tuple per distinct cell: the table holds 36 kB, not 175
    leaf = []
    for bases in patterns:
        for refs in patterns:
            cells = {}
            for cell in zip(bases, refs):
                cells[cell] = cells.get(cell, 0) + 1
            leaf.append(tuple(shared.setdefault(c + (k,), c + (k,)) for c, k in cells.items()))
    return pairing, leaf


def _union_counts(
    refs: list[tuple[int, ...]],
    first_edge: tuple[int, int] | None = None,
    target: int | None = None,
) -> list[list[list[int]]]:
    """Joint relation counts over all matchings r, by one enumeration.

    ``counts[t][i][j]`` is the number of matchings r (through ``first_edge``
    when given) with relation(refs[-1], r) = relations[i] and
    relation(refs[t], r) = relations[j], relations in canonical order.
    With ``target`` given only row i = target of each ``counts[t]`` is
    complete: a branch stops once the base's closed cycles are not a
    sub-multiset of relations[target], once an open base path holds more
    base edges than its largest part, or once more base edges are bound for
    cycles longer than 1 than its parts above 1 hold, since no completion
    of it can end in that relation; six free vertices are not counted when
    no completion of the base's paths ends in it.  Without ``target``
    nothing is pruned.  ``first_edge`` and ``target`` are not given
    together: the walk starts with no base edge bound to a longer cycle.

    For each reference q, the union of q with the partial matching is a set
    of closed cycles plus open paths whose two ends are the free vertices.
    ``ends[f]`` is the other end of free vertex f's path, ``qcount[f]`` the
    number of q-edges on it, and ``qcount[m]`` the code of the closed cycles.
    Placing edge (u, v) closes u's path into a cycle when v is its other end
    and otherwise joins the two paths; undoing it restores both far ends from
    ``ends[u]`` and ``ends[v]``, which placing leaves untouched.  With six
    free vertices left, each reference's three paths pair them, and the 15
    completions are counted at once: ``_completion_table`` gives, for the
    base's pairing and the reference's, how often each pair of closing
    patterns occurs, and each pattern's relation is one or two ``add`` and a
    ``close`` away.  Walks that start with fewer than six free vertices run
    down to the last edge.
    """
    m = len(refs[0])
    d = len(generate_partitions(m // 2))
    states, empty, add, sub, close = _cycle_codes(m // 2)
    pairing, leaf = _completion_table()
    tracks = [(list(q), [1] * m + [empty]) for q in refs]
    counts = [[[0] * d for _ in range(d)] for _ in refs]
    rows = list(zip(tracks, counts))
    base_ends, base_qcount = tracks[-1]
    if target is None:
        fits, largest, budget = [True] * len(states), m, m
    else:
        want = Counter(states[target])
        fits = [not Counter(t) - want for t in states]
        largest = states[target][0]
        budget = sum(h for h in states[target] if h > 1)
    at = [0] * m  # at[f]: where free vertex f stands among the last six

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

    def walk(free: tuple[int, ...], spent: int) -> None:
        """spent counts the base edges bound for base cycles longer than 1:
        those on closed ones and on open paths that hold two or more."""
        if len(free) == 6:
            for k, f in enumerate(free):
                at[f] = k
            f0, f1, f2 = free[0], free[1], free[2]
            keys, shuts = [], []
            for ends, qcount in tracks:
                p, r1, r2 = pairing[36 * at[ends[f0]] + 6 * at[ends[f1]] + at[ends[f2]]]
                c = qcount[m]
                h0, h1, h2 = qcount[f0], qcount[free[r1]], qcount[free[r2]]
                grow = add[c]
                keys.append(p)
                # the relation under each pattern 0..4 of _completion_table
                shuts.append((
                    close[add[grow[h0]][h1]], close[grow[h0 + h1]],
                    close[grow[h0 + h2]], close[grow[h1 + h2]], close[c],
                ))
            base, q = shuts[-1], 15 * keys[-1]
            if target is not None and target not in base:
                return  # no completion ends in the target
            for p, shut, pk in zip(keys, shuts, counts):
                for b, r, k in leaf[q + p]:
                    pk[base[b]][shut[r]] += k
            return
        if len(free) <= 2:
            i = close[base_qcount[m]]
            for (_, qcount), pk in rows:
                pk[i][close[qcount[m]]] += 1
            return
        u = free[0]
        rest = free[1:]
        hu = base_qcount[u]
        for k, v in enumerate(rest):
            # skip (u, v) when it closes a base cycle outside the target, or
            # joins two base paths into one too long for it or binds more
            # base edges to cycles longer than 1 than the target has
            if base_ends[u] == v:
                if not fits[add[base_qcount[m]][hu]]:
                    continue
                grown = spent
            else:
                hv = base_qcount[v]
                grown = spent + (hu == 1) + (hv == 1)
                if hu + hv > largest or grown > budget:
                    continue
            place(u, v)
            walk(rest[:k] + rest[k + 1:], grown)
            unplace(u, v)

    free = tuple(range(m))
    if first_edge is not None:
        place(*first_edge)
        free = tuple(w for w in free if w not in first_edge)
    walk(free, 0)
    return counts


class IntersectionData:
    """Relations, representatives and intersection numbers of the scheme.

    relations are in canonical descending order; p[k][i][j] counts matchings
    R with relation(base, R) = relations[i] and relation(R, rep[k]) =
    relations[j]; valencies[i] = 2^n n! / z2(relations[i]) is the size of
    class i.  Nothing is counted until it is read: ``b_matrix(i)`` walks
    once, pruning every branch that cannot end in relation i to the base,
    so its cost follows that class's size rather than (2n-1)!!; ``p`` walks
    all (2n-1)!! matchings once; ``columns(i)`` holds ``b_matrix(i)`` column
    by column, its nonzero entries and a getter of their rows.  Every row of
    a result must sum to its class's valency, or SchemeError.  Each result
    is kept and shared with every later reader, which must not modify it.
    """

    __slots__ = ("n", "relations", "reps", "valencies", "_p", "_b", "_columns")

    def __init__(self, n: int, relations: list[Partition], reps: list[Matching]):
        self.n = n
        self.relations = relations
        self.reps = reps
        self.valencies = [valency(mu) for mu in relations]
        self._p = None
        self._b: dict[int, list[list[int]]] = {}
        self._columns: dict[int, list[tuple[tuple[int, ...], Callable]]] = {}

    def index(self, mu: Partition) -> int:
        return self.relations.index(mu)

    @property
    def p(self) -> list[list[list[int]]]:
        """The full tensor, from one walk of every matching on first read."""
        if self._p is None:
            p = _union_counts(self.reps)
            for k, pk in enumerate(p):
                for i, row in enumerate(pk):
                    if sum(row) != self.valencies[i]:
                        raise SchemeError(f"row sum p[{k}][{i}] is not the valency")
            self._p = p
        return self._p

    def b_matrix(self, i: int) -> list[list[int]]:
        """Intersection matrix of relation i: entry (k, j) is p[k][i][j],
        from one walk that completes only row i of the counts."""
        if i not in self._b:
            counts = _union_counts(self.reps, target=i)
            for k, pk in enumerate(counts):
                if sum(pk[i]) != self.valencies[i]:
                    raise SchemeError(
                        f"row {k} of b_matrix({i}) does not sum to the"
                        f" valency {self.valencies[i]}"
                    )
            self._b[i] = [pk[i] for pk in counts]
        return self._b[i]

    def columns(self, i: int) -> list[tuple[tuple[int, ...], Callable]]:
        """``b_matrix(i)`` column by column, for each non-identity relation
        j in order: the nonzero p[k][i][j], k ascending, and one getter of
        entries k of a sequence, which returns a tuple even for one k, so
        that ``sum(map(mul, coefficients, getter(phi)))`` is sum_k
        p[k][i][j] phi[k].  Read off ``b_matrix(i)`` on first call."""
        if i not in self._columns:
            b = self.b_matrix(i)
            out = []
            for j in range(len(self.relations) - 1):
                ks = tuple(k for k, bk in enumerate(b) if bk[j])
                getter = (
                    itemgetter(*ks) if len(ks) > 1
                    else lambda phi, k=ks[0]: (phi[k],)
                )
                out.append((tuple(b[k][j] for k in ks), getter))
            self._columns[i] = out
        return self._columns[i]


def intersection_numbers(n: int, max_n: int = DEFAULT_ORACLE_MAX_N) -> IntersectionData:
    """The intersection data of K_{2n} for n <= max_n (GuardExceeded above),
    with every representative checked against its relation.  It counts
    nothing itself: ``IntersectionData`` counts on first read, and
    ``b_matrix(i)`` prunes every branch that cannot end in relation i to
    the base, while ``p`` walks all (2n-1)!!.

    One incremental counter per representative (the base matching is the
    representative of [1^n]) follows how its union with the partial
    matching grows: each placed edge joins two open paths or closes a
    cycle of known half-length in O(1) and is undone on backtracking, so
    no finished union is walked.  See ``_union_counts``.
    """
    _guard_enumeration("intersection numbers", n, max_n)
    relations = list(generate_partitions(n))
    reps = [representative(mu) for mu in relations]
    base = _base_partner(n)
    for mu, rep in zip(relations, reps):
        if _relation_parts(base, rep) != mu:
            raise SchemeError(f"representative {rep} is not in relation {mu}")
    return IntersectionData(n, relations, reps)


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
    return _histogram(_union_counts([p], first_edge=(0, 1))[0], n)


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
