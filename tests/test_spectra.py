import pytest

from pmscheme import (
    CATALOG_PREFIXES,
    Partition,
    degbou,
    double_factorial,
    e_catalog,
    eq5_holds,
    eval_expr,
    family_closed_form,
    family_mu,
    family_second_eig,
    family_threshold,
    generate_partitions,
    hook_gap,
    hook_quotient_closed_forms,
    double_factorial_ratio_bound_range,
    max_min_valency,
    phi_n11,
    small_dim_cutoff,
    small_dim_eigenspaces,
    threshold_n,
    valency,
    verify_induction_step,
    zonal_check,
)
from pmscheme.errors import GuardExceeded
from pmscheme.spectra import BelowFamilyThreshold

P = Partition


def test_valency_examples():
    assert valency(P([3, 2])) == 160
    assert valency(P([4])) == 48
    for n in range(1, 12):
        assert valency(P([1] * n)) == 1
        assert valency(P([n])) == double_factorial(2 * n - 2)


def test_phi_n11_examples():
    assert phi_n11(P([2, 1, 1, 1])) == 11
    assert phi_n11(P([5])) == -48
    assert phi_n11(P([4, 1])) == 24
    # the [n-1,1] relation's own second eigenvalue closed form
    for n in range(6, 20):
        assert phi_n11(P([n - 1, 1])) == 2 ** (n - 3) * _factorial(n - 2)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_phi_n11_sign_tracks_ones():
    for n in range(2, 13):
        for mu in generate_partitions(n):
            signal = (2 * n - 1) * mu.r1() - n
            value = phi_n11(mu)
            if signal > 0:
                assert value > 0
            elif signal < 0:
                assert value < 0
            else:
                assert value == 0
            if mu.r1() == 0:
                assert value < 0


def test_family_examples():
    assert family_second_eig(P([2, 2]), 6) == (48, 132)
    assert family_second_eig(P([5]), 6)[0] == 192
    with pytest.raises(BelowFamilyThreshold):
        family_second_eig(P([3, 2]), 6)
    with pytest.raises(ValueError):
        family_second_eig(P([2, 2]), 3)
    with pytest.raises(ValueError):
        family_second_eig(P([7]), 8)
    # the lookup gap_report and the ratio reports share
    assert family_closed_form(P([2, 2, 1, 1])) == (48, 132)
    assert family_closed_form(P([3, 2, 1])) is None  # below threshold 7
    assert family_closed_form(P([7, 1])) is None  # off the catalog
    assert family_closed_form(P([1, 1, 1])) is None


def test_family_thresholds():
    expected = {
        (2,): 3,
        (3,): 5,
        (2, 2): 6,
        (4,): 6,
        (3, 2): 7,
        (5,): 6,
    }
    for prefix in CATALOG_PREFIXES:
        assert family_threshold(prefix) == expected[prefix.parts]


def test_family_three_routes_agree_to_100():
    for prefix in CATALOG_PREFIXES:
        expr = e_catalog(prefix)
        for n in range(prefix.n, 101):
            mu = family_mu(prefix, n)
            assert phi_n11(mu) == eval_expr(expr, P([n - 1, 1]))
            if n >= family_threshold(prefix):
                second, gap = family_second_eig(prefix, n)
                assert second == phi_n11(mu)
                assert gap == valency(mu) - second


def test_catalog_top_row_is_valency():
    for n in range(2, 8):
        for mu in generate_partitions(n):
            prefix = P([p for p in mu.parts if p > 1])
            if prefix.parts and prefix in CATALOG_PREFIXES:
                assert eval_expr(e_catalog(prefix), P([n])) == valency(mu)


def test_hook_gap_examples():
    assert hook_gap(5, 2) == 54
    assert hook_gap(5, 3) == 9
    assert hook_gap(6, 4) == 11
    with pytest.raises(ValueError):
        hook_gap(6, 5)
    with pytest.raises(ValueError):
        hook_gap(6, 0)


def test_hook_gap_matches_eigenvalues_to_30():
    for n in range(3, 31):
        for ell in range(1, n - 1):
            mu = P([n - ell] + [1] * ell)
            assert hook_gap(n, ell) == valency(mu) - phi_n11(mu)


def test_hook_quotient_closed_forms_match_counts():
    from pmscheme import quotient_counts_all

    for n in range(3, 7):
        qc = quotient_counts_all(n)
        for ell in range(1, n - 1):
            mu = P([n - ell] + [1] * ell)
            assert (qc[mu].a, qc[mu].b) == hook_quotient_closed_forms(n, ell)


def test_degbou():
    b = degbou(P([2, 1, 1, 1]))
    assert b.coefficient == 4 * 192
    assert b.n == 5
    # exact squared comparison against the true irrational bound
    # 768 * 5^(3/2) = 8586.50...
    assert b.allows(8586)
    assert not b.allows(8587)
    assert degbou(P([6])).coefficient == 4 * 12
    assert degbou(P([1] * 4)).coefficient == 4 * double_factorial(8)


def test_eq5_and_threshold():
    assert not eq5_holds(6, 1)
    assert threshold_n(1) == 148
    assert not eq5_holds(147, 1) and eq5_holds(148, 1)
    t2 = threshold_n(2)
    assert not eq5_holds(t2 - 1, 2) and eq5_holds(t2, 2)
    for k in range(1, 7):
        assert threshold_n(k) > 2 * k
    with pytest.raises(ValueError):
        threshold_n(0)


def test_lemma_sqrt():
    assert double_factorial_ratio_bound_range(2, 2)  # (3/8)^2 * 3 = 27/64 < 1
    assert double_factorial_ratio_bound_range(2, 500)


def test_small_dim_eigenspaces():
    assert small_dim_eigenspaces(7) == [P([7]), P([6, 1])]
    assert small_dim_eigenspaces(8) == [P([8]), P([7, 1])]
    assert small_dim_cutoff(7) == 273
    with pytest.raises(GuardExceeded) as refused:
        small_dim_eigenspaces(6)
    assert str(refused.value) == "small-dimension scan guarded to n >= 7 (asked 6)"


def test_partition_scans_refuse_above_their_limits(monkeypatch):
    from pmscheme import spectra

    def fail(n):
        raise AssertionError(f"partitions of {n} listed past the guard")

    monkeypatch.setattr(spectra, "iter_partitions", fail)
    for scan, what, limit in [
        (small_dim_eigenspaces, "small-dimension scan", spectra.SMALL_DIM_MAX_N),
        (max_min_valency, "valency scan", spectra.VALENCY_SCAN_MAX_N),
    ]:
        with pytest.raises(GuardExceeded) as refused:
            scan(limit + 1)
        assert str(refused.value) == (
            f"{what} guarded to n <= {limit} (asked {limit + 1})"
        )


def test_partition_scans_leave_the_caches_as_they_were():
    from pmscheme import partitions

    caches = [
        partitions.generate_partitions,
        partitions.dim_hook,
        partitions.frobenius_dim,
    ]
    before = [fn.cache_info().currsize for fn in caches]
    assert small_dim_eigenspaces(23) == [P([23]), P([22, 1])]
    assert max_min_valency(29)[1::2] == (P([29]), P([1] * 29))
    assert [fn.cache_info().currsize for fn in caches] == before


def test_zonal_small_tables(oracle_table):
    for n in (2, 3):
        table = oracle_table(n)
        for mu in table.columns:
            for lam in table.rows:
                assert zonal_check(mu, lam) == table.value(lam, mu)


def test_zonal_identity_column():
    for lam in generate_partitions(3):
        assert zonal_check(P([1, 1, 1]), lam) == 1


def test_zonal_guard():
    with pytest.raises(GuardExceeded):
        zonal_check(P([6]), P([6]))


def test_induction_step_small():
    report = verify_induction_step(P([2]), 6)
    assert report.passed
    assert report.rhs == delta_rhs_for_prefix_2(6)
    report = verify_induction_step(P([3]), 8)
    assert report.passed


def delta_rhs_for_prefix_2(n):
    # increment of the flip family between [n-1,1] and [n,1]
    e2 = e_catalog(P([2]))
    return eval_expr(e2, P([n, 1])) - eval_expr(e2, P([n - 1, 1]))


def test_gap_report_sources():
    from pmscheme import gap_report

    rep = gap_report(P([2, 1, 1, 1, 1]))
    assert (rep.valency, rep.second_eig, rep.gap) == (30, 19, 11)
    assert rep.source == "closed-form"
    rep = gap_report(P([6, 1]))
    assert rep.gap == 24960 and rep.source == "conjectured-hook"
    with pytest.raises(ValueError):
        gap_report(P([3, 2]))  # below the family threshold
    with pytest.raises(ValueError):
        gap_report(P([2, 2]))  # no closed form: the gap needs the table
    with pytest.raises(ValueError):
        gap_report(P([1, 1, 1]))
    with pytest.raises(ValueError):
        gap_report(P([4, 3]))  # no closed form


def test_max_min_valency():
    assert max_min_valency(4) == (48, P([4]), 1, P([1, 1, 1, 1]))
    assert max_min_valency(5) == (384, P([5]), 1, P([1, 1, 1, 1, 1]))
    assert max_min_valency(2) == (2, P([2]), 1, P([1, 1]))
