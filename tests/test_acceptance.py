"""Acceptance suite: one test per numbered criterion, printed one per line.

Run with  pytest tests/test_acceptance.py -v  (add -s for the PASS lines).
Criterion 13a checks the threshold of the k = 1 dimension-bound inequality:
the documented n = 6 does not satisfy it, and the first n that does is 148,
found by two independent scans; see the README test section.
"""

import os
import random
from fractions import Fraction
from itertools import count

from golden_data import GOLDEN_TABLES, GOLDEN_32_COLUMN_N8

from pmscheme import (
    CATALOG_PREFIXES,
    Partition,
    PowerSumExpr,
    build_table_formulas,
    column_claim,
    merge_constant,
    content,
    degbou,
    degree_histogram,
    delta_closed_forms,
    delta_eval,
    diameter,
    dim_hook,
    e_catalog,
    eq5_holds,
    eval_expr,
    family_mu,
    family_second_eig,
    family_threshold,
    fit_e_mu,
    frobenius_dim,
    gap_scan,
    generate_partitions,
    hook_gap,
    hook_quotient_closed_forms,
    irr_char,
    double_factorial_ratio_bound_range,
    phi_n11,
    quotient_counts_all,
    small_dim_cutoff,
    successors,
    tau_ratio,
    threshold_n,
    trace_identity_check,
    valency,
    valency_ratio,
    verify_conjecture,
    verify_induction_step,
    verify_structure_constants,
    zonal_check,
    all_merges,
    gap_ratio_report,
)

P = Partition
HERE = os.path.dirname(os.path.abspath(__file__))


def _report(line: str) -> None:
    print(line)


def test_c01_golden_tables(oracle_table):
    for n in range(2, 8):
        table = oracle_table(n)
        spec = GOLDEN_TABLES[n]
        assert [str(mu) for mu in table.columns] == spec["columns"]
        for (label, values, dim), lam, got_dim, got_row in zip(
            spec["rows"], table.rows, table.dims, table.grid()
        ):
            assert str(lam) == label
            assert got_row == values
            assert got_dim == dim
        with open(os.path.join(HERE, "golden", f"table_n{n}.csv")) as fh:
            assert table.to_csv_text() == fh.read()
    _report("criterion 1: PASS - oracle tables n=2..7 match the transcription, CSV byte-exact")


def test_c02_route_equivalence(oracle_table):
    cells = 0
    for n in range(2, 8):
        formulas = build_table_formulas(n)
        oracle = oracle_table(n)
        for lam in formulas.rows:
            for mu in formulas.columns:
                v = formulas.value(lam, mu)
                if v is not None:
                    assert v == oracle.value(lam, mu), (n, str(lam), str(mu))
                    cells += 1
    _report(f"criterion 2: PASS - formula and oracle routes agree on {cells} cells, n<=7")


def test_c03_conjecture(oracle_table):
    for n in range(4, 8):
        assert verify_conjecture(oracle_table(n)).overall, f"conjecture fails at n={n}"
    for prefix in CATALOG_PREFIXES:
        expr = e_catalog(prefix)
        for n in range(8, 101):
            mu = family_mu(prefix, n)
            second, gap = family_second_eig(prefix, n)
            assert second == phi_n11(mu) == eval_expr(expr, P([n - 1, 1]))
            assert gap == valency(mu) - second
        report = verify_induction_step(prefix, 15)
        assert report.passed, f"induction step fails for {prefix}"
    _report(
        "criterion 3: PASS - conjecture true n=4..7; three routes agree 8<=n<=100;"
        " induction step passes for all six families at n=15"
    )


def test_c04_closed_forms_match_tables(oracle_table):
    checked = 0
    for n in (5, 6, 7):
        table = oracle_table(n)
        hook = P([n - 1, 1])
        for prefix in CATALOG_PREFIXES:
            if n < family_threshold(prefix):
                continue
            mu = family_mu(prefix, n)
            second, gap = family_second_eig(prefix, n)
            assert table.value(hook, mu) == second
            assert valency(mu) - second == gap
            claim = column_claim(mu, table.column(mu))
            assert claim.second == second and hook in claim.rows
            checked += 1
    assert family_second_eig(P([2]), 5) == (11, 9)
    assert family_second_eig(P([2, 2]), 6) == (48, 132)
    assert family_second_eig(P([4]), 6)[0] == 192
    assert family_second_eig(P([5]), 6)[0] == 192
    _report(f"criterion 4: PASS - {checked} family columns match table second eigenvalues and gaps")


def test_c05_trace_and_structure_constants(oracle_table, idata):
    for n in range(2, 8):
        table = oracle_table(n)
        for mu in table.columns:
            assert trace_identity_check(table, mu), f"trace fails at n={n}, {mu}"
    for n in range(2, 8):
        assert verify_structure_constants(oracle_table(n), idata(n))
    _report(
        "criterion 5: PASS - trace identity exact for every column n<=7;"
        " structure constants exhaustive n<=7"
    )


def test_c06_quotient_counts():
    for n in range(2, 7):
        qc = quotient_counts_all(n)
        for mu, q in qc.items():
            assert q.a - q.b == phi_n11(mu), f"quotient eigenvalue off at {mu}"
        for ell in range(1, n - 1):
            mu = P([n - ell] + [1] * ell)
            assert (qc[mu].a, qc[mu].b) == hook_quotient_closed_forms(n, ell)
    _report(
        "criterion 6: PASS - counted a-b equals the [n-1,1] eigenvalue for all"
        " relations n<=6; hook block counts match their closed forms"
    )


def test_c07_hook_gaps():
    checked = 0
    for n in range(3, 31):
        for ell in range(1, n - 1):
            mu = P([n - ell] + [1] * ell)
            assert hook_gap(n, ell) == valency(mu) - phi_n11(mu)
            checked += 1
    _report(f"criterion 7: PASS - hook gap product exact for {checked} hooks, n<=30")


def test_c08_merge_ratios():
    checked = 0
    for n in range(3, 8):
        for mu in generate_partitions(n):
            if mu.parts[-1] != 1:
                continue
            for spec in all_merges(mu):
                tr = tau_ratio(spec)
                if tr is not None:
                    assert valency_ratio(spec) == tr
                    checked += 1
    # oracle counts confirm the table ratios that the formula constant misses
    deg4, deg5 = degree_histogram(4), degree_histogram(5)
    assert Fraction(deg4[P([4])], deg4[P([2, 2])]) == 4
    assert Fraction(deg5[P([5])], deg5[P([3, 2])]) == Fraction(12, 5)
    from pmscheme import MergeSpec

    assert merge_constant(MergeSpec(P([2, 2]), 1, 2)) == 2
    assert merge_constant(MergeSpec(P([3, 2]), 1, 2)) == Fraction(6, 5)
    report = gap_ratio_report(MergeSpec(P([2, 2]), 1, 2))
    assert not report.matches_formula and report.valency_ratio == 4
    _report(
        f"criterion 8: PASS - valency ratio equals tau ratio on {checked} merges"
        " n<=7; oracle confirms ratios 4 and 12/5; formula constant flagged, not asserted"
    )


def test_c09_interpolation(oracle_table):
    col8 = oracle_table(8).column(P([3, 2, 1, 1, 1]))
    assert col8 == GOLDEN_32_COLUMN_N8
    for prefix in (P([3, 2]), P([5])):
        data = []
        for n in range(5, 9):
            mu = family_mu(prefix, n)
            data.append((n, oracle_table(n).column(mu)))
        fitted = fit_e_mu(prefix, data)
        assert fitted == e_catalog(prefix), f"fit differs from catalog for {prefix}"
    _report(
        "criterion 9: PASS - fits from oracle columns n=5..8 reproduce both"
        " reference coefficient lists exactly"
    )


def test_c10_delta_closed_forms():
    rng = random.Random(1234)
    p1 = PowerSumExpr({P([1]): [1]})
    p2 = PowerSumExpr({P([2]): [1]})
    p3 = PowerSumExpr({P([3]): [1]})
    p1sq = PowerSumExpr({P([1, 1]): [1]})
    for _ in range(1000):
        n = rng.randint(1, 30)
        parts = []
        left = n
        while left:
            p = rng.randint(1, min(left, parts[-1] if parts else left))
            parts.append(p)
            left -= p
        lam = P(parts)
        lam_plus, i = rng.choice(successors(lam))
        lam_i = lam.parts[i - 1] if i <= len(lam) else 0
        assert delta_closed_forms("p1", lam_i, i) == delta_eval(p1, lam, i)
        assert delta_closed_forms("p2", lam_i, i) == delta_eval(p2, lam, i)
        assert delta_closed_forms("p3", lam_i, i) == delta_eval(p3, lam, i)
        coeff, const = delta_closed_forms("p1sq", lam_i, i)
        assert coeff * content(lam).power_sum(1) + const == delta_eval(p1sq, lam, i)
    _report("criterion 10: PASS - all four increment closed forms exact on 1000 random growths")


def test_c11_diameter_and_gap_scan(oracle_table):
    for n in range(3, 7):
        res = diameter(oracle_table(n), P([2] + [1] * (n - 2)))
        assert res.connected and res.diameter == n - 1
    for n in (5, 6, 7):
        gaps = {mu: claim.gap for mu, claim in gap_scan(oracle_table(n)).items()}
        flip = P([2] + [1] * (n - 2))
        smallest = min(gaps.values())
        argmins = [m for m, g in gaps.items() if g == smallest]
        assert argmins == [flip]
    _report(
        "criterion 11: PASS - flip-graph diameter is n-1 for n=3..6; smallest"
        " gap column is [2,1^(n-2)] at n=5,6,7"
    )


def test_c12_characters_and_coset_sums(oracle_table):
    for n in range(1, 7):
        for lam in generate_partitions(n):
            f = dim_hook(lam)
            assert f == frobenius_dim(lam)
            assert f == irr_char(lam.double(), P([1] * (2 * n)))
    for n in range(2, 5):
        table = oracle_table(n)
        for mu in table.columns:
            for lam in table.rows:
                assert zonal_check(mu, lam) == table.value(lam, mu)
    table5 = oracle_table(5)
    spots = [
        (P([2, 1, 1, 1]), P([4, 1])),
        (P([5]), P([3, 2])),
        (P([3, 2]), P([2, 2, 1])),
        (P([1, 1, 1, 1, 1]), P([5])),
    ]
    for mu, lam in spots:
        assert zonal_check(mu, lam) == table5.value(lam, mu)
    _report(
        "criterion 12: PASS - hook, determinant and recursive character routes"
        " agree n<=6; coset sums reproduce tables n<=4 and n=5 spot cells"
    )


def test_c13a_trace_inequality_threshold():
    # k = 1: n(2n-1)(2n-5)/3 > 8 n^(3/2) (n-1) 2!!, squared into integers as
    # (n(2n-1)(2n-5))^2 > 9 * 64 * n^3 * (n-1)^2 * 2^2 while the left side is positive
    def holds(n):
        lhs3 = n * (2 * n - 1) * (2 * n - 5)
        return lhs3 > 0 and lhs3 * lhs3 > 9 * 64 * n**3 * (n - 1) ** 2 * 2**2

    # the documented threshold fails: left side 154, right side 80 * 6^(3/2) > 1175
    assert not (3 * 154) ** 2 > 9 * 64 * 6**3 * 5**2 * 2**2
    assert not holds(6) and not eq5_holds(6, 1)

    scanned = next(n for n in count(3) if holds(n))
    # the same threshold from the proof's ingredients: the first n at which
    # C(2n,3) - C(2n,2) exceeds the dimension bound for [n-1,1]
    by_bound = next(
        n for n in count(3) if not degbou(P([n - 1, 1])).allows(small_dim_cutoff(n))
    )
    found = threshold_n(1)
    tail = all(eq5_holds(n, 1) for n in range(148, 10**4 + 1))
    ok = found == scanned == by_bound == 148 and tail
    _report(
        f"criterion 13a: {'PASS' if ok else 'FAIL'} - the documented n=6 fails the k=1"
        f" inequality; first n satisfying it is {found} (linear scan {scanned},"
        f" degbou route {by_bound}), and it holds for every n up to 10^4"
    )
    assert found == scanned, f"threshold_n(1)={found}, linear scan gives {scanned}"
    assert by_bound == scanned, f"degbou route gives {by_bound}, linear scan {scanned}"
    assert scanned == 148
    assert tail, "the k=1 inequality fails somewhere in [148, 10^4]"


def test_c13b_sqrt_ratio_predicate():
    assert double_factorial_ratio_bound_range(2, 10**4)
    _report("criterion 13b: PASS - factorial-ratio bound verified exactly for 2<=n<=10^4")
