"""Part-merging transformations and the ratio laws they induce.

The closed-form merge constant is implemented verbatim and kept strictly apart
from the measured ratios; reports carry both and flag disagreement instead
of silently correcting either side; gaps come from closed forms alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .partitions import Partition
from .spectra import family_closed_form, phi_n11, valency

# verify ratios reports each merge of each partition of n: 1.4-1.8 s at
# n = 30 (BENCH_catalog.json).
RATIOS_MAX_N = 30


@dataclass(frozen=True)
class MergeSpec:
    """A merge of two parts of mu, addressed by 1-based part indices."""

    mu: Partition
    i: int
    j: int

    def __post_init__(self):
        k = len(self.mu)
        if not (1 <= self.i <= k and 1 <= self.j <= k) or self.i == self.j:
            raise ValueError(f"part indices must be distinct and within {self.mu}")
        if self.part_i < 2 or self.part_j < 2:
            raise ValueError("merged parts must both be at least 2")

    @property
    def part_i(self) -> int:
        return self.mu.parts[self.i - 1]

    @property
    def part_j(self) -> int:
        return self.mu.parts[self.j - 1]

    @property
    def merged(self) -> Partition:
        parts = list(self.mu.parts)
        hi, lo = max(self.i, self.j) - 1, min(self.i, self.j) - 1
        parts.pop(hi)
        parts.pop(lo)
        parts.append(self.part_i + self.part_j)
        return Partition(sorted(parts, reverse=True))

    @property
    def n_i(self) -> int:
        return self.mu.parts.count(self.part_i)

    @property
    def n_j(self) -> int:
        return self.mu.parts.count(self.part_j)

    @property
    def m(self) -> int:
        return self.merged.parts.count(self.part_i + self.part_j)


def all_merges(mu: Partition) -> list[MergeSpec]:
    """One MergeSpec per unordered pair of part values >= 2 of mu."""
    out = []
    seen: set[tuple[int, int]] = set()
    k = len(mu)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if mu.parts[i - 1] < 2 or mu.parts[j - 1] < 2:
                continue
            key = (mu.parts[i - 1], mu.parts[j - 1])
            if key in seen:
                continue  # same value pair merges identically
            seen.add(key)
            out.append(MergeSpec(mu, i, j))
    return out


def merge_constant(spec: MergeSpec) -> Fraction:
    """The closed-form merge constant, verbatim: n_i(n_i-1)mu_i/(2m) for
    equal parts and n_i n_j mu_i mu_j / (m(mu_i+mu_j)) otherwise.

    Measured valency ratios are exactly twice this value on every merge
    checked against enumeration; reports carry both numbers."""
    a, b = spec.part_i, spec.part_j
    if a == b:
        return Fraction(spec.n_i * (spec.n_i - 1) * a, 2 * spec.m)
    return Fraction(spec.n_i * spec.n_j * a * b, spec.m * (a + b))


def valency_ratio(spec: MergeSpec) -> Fraction:
    """Measured ratio of the merged valency to the original valency."""
    return Fraction(valency(spec.merged), valency(spec.mu))


def tau_ratio(spec: MergeSpec) -> Fraction | None:
    """Ratio of the [n-1,1]-eigenvalues across the merge.

    Requires mu to end with a part of size 1 (so the eigenvalue is anchored);
    None when the original eigenvalue vanishes.
    """
    if spec.mu.parts[-1] != 1:
        raise ValueError("tau ratio needs a trailing part of size 1 in mu")
    denom = phi_n11(spec.mu)
    if denom == 0:
        return None
    return Fraction(phi_n11(spec.merged), denom)


@dataclass(frozen=True)
class RatioReport:
    spec: MergeSpec
    gap_ratio: Fraction | None
    valency_ratio: Fraction
    tau_ratio: Fraction | None
    formula_constant: Fraction
    ratios_agree: bool
    matches_formula: bool

    @property
    def consistent(self) -> bool:
        return self.ratios_agree and self.matches_formula

    def summary(self) -> str:
        lines = [
            f"merge {self.spec.mu} -> {self.spec.merged} "
            f"(parts {self.spec.part_i} and {self.spec.part_j})",
            f"  valency ratio : {self.valency_ratio}",
            f"  tau ratio     : {self.tau_ratio if self.tau_ratio is not None else 'undefined'}",
            f"  gap ratio     : {self.gap_ratio if self.gap_ratio is not None else 'unavailable'}",
            f"  formula const : {self.formula_constant}",
            f"  consistent    : {self.consistent}",
        ]
        if not self.matches_formula:
            lines.append(
                "  NOTE: formula constant disagrees with the measured ratios"
                f" (factor {self.valency_ratio / self.formula_constant})"
            )
        return "\n".join(lines)


def gap_ratio_report(spec: MergeSpec) -> RatioReport:
    """Bundle every ratio across a merge with a consistency verdict.

    Gaps come from the closed-form families; the gap ratio is None unless
    both endpoints are covered.
    """
    v_ratio = valency_ratio(spec)
    try:
        t_ratio = tau_ratio(spec)
    except ValueError:
        t_ratio = None
    g_ratio: Fraction | None = None
    old = family_closed_form(spec.mu)
    new = family_closed_form(spec.merged)
    if old is not None and new is not None and old[1] != 0:
        g_ratio = Fraction(new[1], old[1])
    cp = merge_constant(spec)
    present = [r for r in (g_ratio, v_ratio, t_ratio) if r is not None]
    ratios_agree = all(r == present[0] for r in present)
    return RatioReport(
        spec=spec,
        gap_ratio=g_ratio,
        valency_ratio=v_ratio,
        tau_ratio=t_ratio,
        formula_constant=cp,
        ratios_agree=ratios_agree,
        matches_formula=v_ratio == cp,
    )

