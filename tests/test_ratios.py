from fractions import Fraction

import pytest

from pmscheme import (
    Dominance,
    MergeSpec,
    Partition,
    all_merges,
    merge_constant,
    degree_histogram,
    dominance_compare,
    gap_ratio_report,
    gap_scan,
    generate_partitions,
    tau_ratio,
    valency_ratio,
)

P = Partition
F = Fraction


def test_merge_spec_validation():
    spec = MergeSpec(P([3, 2]), 1, 2)
    assert spec.merged == P([5])
    assert (spec.n_i, spec.n_j, spec.m) == (1, 1, 1)
    with pytest.raises(ValueError):
        MergeSpec(P([2, 1]), 1, 2)  # merging a part of size 1
    with pytest.raises(ValueError):
        MergeSpec(P([2, 2]), 1, 1)
    with pytest.raises(ValueError):
        MergeSpec(P([2, 2]), 1, 3)


def test_c_paper_examples():
    assert merge_constant(MergeSpec(P([2, 2]), 1, 2)) == 2
    assert merge_constant(MergeSpec(P([3, 2]), 1, 2)) == F(6, 5)
    assert merge_constant(MergeSpec(P([2, 2, 1]), 1, 2)) == 2


def test_valency_ratio_examples():
    assert valency_ratio(MergeSpec(P([2, 2]), 1, 2)) == 4
    assert valency_ratio(MergeSpec(P([3, 2]), 1, 2)) == F(12, 5)
    assert valency_ratio(MergeSpec(P([2, 2, 1]), 1, 2)) == 4


def test_tau_ratio_examples():
    assert tau_ratio(MergeSpec(P([2, 2, 1]), 1, 2)) == 4
    assert tau_ratio(MergeSpec(P([2, 2, 1, 1]), 1, 2)) == 4
    assert tau_ratio(MergeSpec(P([3, 2, 1]), 1, 2)) == F(12, 5)
    with pytest.raises(ValueError):
        tau_ratio(MergeSpec(P([2, 2]), 1, 2))  # no trailing part of size 1


def test_oracle_confirms_table_ratios():
    # brute-force degree counts, fully independent of the valency formula
    deg4, deg5 = degree_histogram(4), degree_histogram(5)
    assert F(deg4[P([4])], deg4[P([2, 2])]) == 4
    assert F(deg5[P([5])], deg5[P([3, 2])]) == F(12, 5)


def test_valency_equals_tau_ratio_everywhere():
    for n in range(3, 8):
        for mu in generate_partitions(n):
            if mu.parts[-1] != 1:
                continue
            for spec in all_merges(mu):
                tr = tau_ratio(spec)
                if tr is not None:
                    assert valency_ratio(spec) == tr


def test_merge_moves_up_in_dominance():
    for n in range(4, 9):
        for mu in generate_partitions(n):
            for spec in all_merges(mu):
                assert dominance_compare(spec.merged, spec.mu) is Dominance.GREATER


def test_family_pair_gap_ratios():
    for n in range(7, 101):
        spec = MergeSpec(P([2, 2] + [1] * (n - 4)), 1, 2)
        report = gap_ratio_report(spec)
        assert report.gap_ratio == 4
        assert report.valency_ratio == 4
        assert report.tau_ratio == 4
        assert report.formula_constant == 2
        assert report.ratios_agree
        assert not report.matches_formula
        assert not report.consistent
        spec = MergeSpec(P([3, 2] + [1] * (n - 5)), 1, 2)
        report = gap_ratio_report(spec)
        assert report.gap_ratio == F(12, 5)
        assert report.ratios_agree
        assert report.formula_constant == F(6, 5)


def test_gap_report_with_table(oracle_table):
    # the n = 4 merge where the second eigenvalue is off [n-1,1]
    gaps = {mu: claim.gap for mu, claim in gap_scan(oracle_table(4)).items()}
    assert F(gaps[P([4])], gaps[P([2, 2])]) == F(44, 5)
    report = gap_ratio_report(MergeSpec(P([2, 2]), 1, 2))
    assert report.gap_ratio is None  # [2,2] is in no closed-form family
    assert report.valency_ratio == 4
    assert report.formula_constant == 2
    assert not report.consistent
    gaps6 = {mu: claim.gap for mu, claim in gap_scan(oracle_table(6)).items()}
    assert F(gaps6[P([4, 1, 1])], gaps6[P([2, 2, 1, 1])]) == 4
    report6 = gap_ratio_report(MergeSpec(P([2, 2, 1, 1]), 1, 2))
    assert report6.valency_ratio == 4 and report6.ratios_agree


def test_summary_mentions_discrepancy():
    text = gap_ratio_report(MergeSpec(P([2, 2, 1, 1]), 1, 2)).summary()
    assert "NOTE" in text and "factor 2" in text
