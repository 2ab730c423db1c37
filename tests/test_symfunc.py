import random
from fractions import Fraction

import pytest

from pmscheme import (
    CATALOG_PREFIXES,
    Dominance,
    Partition,
    PolyT,
    PowerSumExpr,
    content,
    delta_closed_forms,
    delta_eval,
    dominance_compare,
    e_catalog,
    eval_expr,
    fit_e_mu,
    generate_partitions,
    monomial_basis,
    parse_power_sum_expr,
    parse_polyt,
    successors,
    zonal_power_sums,
)
from pmscheme.errors import FitInconsistent, FitUnderdetermined, SchemeError

P = Partition
P1 = PowerSumExpr({P([1]): PolyT([1])})
P2 = PowerSumExpr({P([2]): PolyT([1])})
P3 = PowerSumExpr({P([3]): PolyT([1])})
P1SQ = PowerSumExpr({P([1, 1]): PolyT([1])})


def test_eval_examples():
    e2 = e_catalog(P([2]))
    assert eval_expr(e2, P([5])) == 20
    assert eval_expr(e2, P([4, 1])) == 11
    assert eval_expr(e_catalog(P([3])), P([1, 1, 1, 1, 1])) == 20


def test_eval_constant_term():
    one = PowerSumExpr({P(): PolyT([1])})
    for lam in generate_partitions(5):
        assert eval_expr(one, lam) == 1


def test_catalog_spot_values():
    assert eval_expr(e_catalog(P([3, 2])), P([6])) == 960
    assert eval_expr(e_catalog(P([5])), P([5, 1])) == 192
    assert eval_expr(e_catalog(P([2, 2])), P([5, 1])) == 48
    # each catalog expression is built once and shared, so it is read-only
    assert all(e_catalog(p) is e_catalog(p) for p in CATALOG_PREFIXES)
    with pytest.raises(TypeError):
        e_catalog(P([2])).terms[P([1])] = PolyT([1])
    with pytest.raises(ValueError):
        e_catalog(P([6]))
    with pytest.raises(ValueError):
        e_catalog(P([2, 2, 2]))


def test_delta_eval_examples():
    assert delta_eval(P1, P([3, 1]), 1) == 13
    assert delta_eval(P1, P([2, 1]), 3) == -3
    for n in (5, 9, 16):
        got = delta_eval(e_catalog(P([3])), P([n - 1, 1]), 1)
        assert got == 4 * n * n - 12 * n + 6
    with pytest.raises(ValueError):
        delta_eval(P1, P([2, 2]), 2)


def test_delta_closed_form_examples():
    assert delta_closed_forms("p2", 1, 1) == 13
    assert delta_closed_forms("p1", 0, 2) == -1
    assert delta_closed_forms("p3", 2, 1) == delta_eval(P3, P([2]), 1)
    with pytest.raises(ValueError):
        delta_closed_forms("p4", 1, 1)


def test_delta_closed_forms_match_direct_evaluation():
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 30)
        lam = _random_partition(rng, n)
        lam_plus, i = rng.choice(successors(lam))
        lam_i = lam.parts[i - 1] if i <= len(lam) else 0
        assert delta_closed_forms("p1", lam_i, i) == delta_eval(P1, lam, i)
        assert delta_closed_forms("p2", lam_i, i) == delta_eval(P2, lam, i)
        assert delta_closed_forms("p3", lam_i, i) == delta_eval(P3, lam, i)
        coeff, const = delta_closed_forms("p1sq", lam_i, i)
        p1_here = content(lam).power_sum(1)
        assert coeff * p1_here + const == delta_eval(P1SQ, lam, i)
        checked += 1


def _random_partition(rng, n):
    parts = []
    left = n
    while left:
        cap = min(left, parts[-1] if parts else left)
        p = rng.randint(1, cap)
        parts.append(p)
        left -= p
    return Partition(parts)


def test_monomial_basis_examples():
    def entry_set(prefix):
        return {(m.parts, b) for m, b in monomial_basis(P(prefix))}

    assert entry_set([3, 2]) == {
        ((3,), 1), ((2, 1), 0), ((2,), 2), ((1, 1), 1), ((1,), 3), ((), 5),
    }
    assert entry_set([2]) == {((1,), 0), ((), 2)}
    # merges of the reduced prefix only: [2,1] is not a coarsening of [3]
    assert entry_set([4]) == {
        ((3,), 0), ((2,), 1), ((1, 1), 0), ((1,), 2), ((), 4),
    }
    with pytest.raises(ValueError):
        monomial_basis(P([2, 1]))


def test_catalog_support_inside_basis():
    for prefix in CATALOG_PREFIXES:
        allowed = {mono for mono, _ in monomial_basis(prefix)}
        expr = e_catalog(prefix)
        assert set(expr.terms) <= allowed
        for mono, bound in monomial_basis(prefix):
            if mono in expr.terms:
                assert expr.terms[mono].degree <= bound


def test_flip_family_monotone_in_dominance():
    e2 = e_catalog(P([2]))
    for n in range(2, 9):
        ps = generate_partitions(n)
        for a in ps:
            for b in ps:
                if dominance_compare(a, b) is Dominance.GREATER:
                    assert eval_expr(e2, a) > eval_expr(e2, b)


def test_p1_bounds():
    for n in range(1, 31):
        for lam in generate_partitions(n):
            p1 = content(lam).power_sum(1)
            assert p1 >= -n * n + 2 * n
            if lam.parts[0] > Fraction(n, 2):
                assert 4 * p1 > n * n


def test_text_roundtrip():
    for prefix in CATALOG_PREFIXES:
        expr = e_catalog(prefix)
        assert parse_power_sum_expr(expr.to_text()) == expr
    assert parse_polyt(PolyT([Fraction(15, 2), Fraction(-1, 8)]).to_text()) == PolyT(
        [Fraction(15, 2), Fraction(-1, 8)]
    )
    assert parse_polyt("0") == PolyT()


def test_text_parsers_refuse_a_repeated_term():
    # to_text writes each monomial and each degree once; a text that
    # repeats one is not canonical and is refused, not summed
    with pytest.raises(ValueError, match=r"monomial p\[1\] repeated"):
        parse_power_sum_expr("(1)*p[1] + (2)*p[1]")
    with pytest.raises(ValueError, match="degree 1 repeated"):
        parse_polyt("1*t + 2*t")
    assert parse_power_sum_expr("(1)*p[1] + (2)*p[2]") == PowerSumExpr(
        {P([1]): PolyT([1]), P([2]): PolyT([2])}
    )


def test_fit_from_formula_columns():
    # columns generated by evaluation; the fit must reproduce the catalog
    def columns(prefix, ns):
        expr = e_catalog(prefix)
        return [
            (n, [eval_expr(expr, lam) for lam in generate_partitions(n)])
            for n in ns
        ]

    prefix = P([2])
    assert fit_e_mu(prefix, columns(prefix, (3, 4))) == e_catalog(prefix)
    prefix = P([2, 2])
    assert fit_e_mu(prefix, columns(prefix, range(4, 8))) == e_catalog(prefix)
    prefix = P([3, 2])
    fitted = fit_e_mu(prefix, columns(prefix, range(5, 9)), holdout=(9, columns(prefix, (9,))[0][1]))
    assert fitted == e_catalog(prefix)


def test_fit_error_reporting():
    prefix = P([2])
    expr = e_catalog(prefix)
    good = [
        (n, [eval_expr(expr, lam) for lam in generate_partitions(n)])
        for n in (3, 4)
    ]
    with pytest.raises(FitUnderdetermined):
        fit_e_mu(prefix, [])
    bad = [(3, [good[0][1][0] + 1] + list(good[0][1][1:])), good[1]]
    with pytest.raises(FitInconsistent):
        fit_e_mu(prefix, bad)
    with pytest.raises(ValueError):
        fit_e_mu(prefix, [(3, good[0][1][:2])])
    # too few n values to carry the true polynomial degrees: the capped fit
    # still matches the supplied points, and a held-out column exposes it
    prefix = P([3, 2])
    expr = e_catalog(prefix)
    cols = [
        (n, [eval_expr(expr, lam) for lam in generate_partitions(n)])
        for n in (5, 6)
    ]
    undersampled = fit_e_mu(prefix, cols)
    assert undersampled != e_catalog(prefix)
    col7 = [eval_expr(expr, lam) for lam in generate_partitions(7)]
    with pytest.raises(FitInconsistent):
        fit_e_mu(prefix, cols, holdout=(7, col7))


def test_zonal_power_sums_small():
    # J_2 = p_1^2 + 2 p_2 and J_11 = p_1^2 - p_2
    assert zonal_power_sums(2) == {
        P([2]): {P([2]): 2, P([1, 1]): 1},
        P([1, 1]): {P([2]): -1, P([1, 1]): 1},
    }
    # J_(n) carries the valencies; J_(1^n) = n! e_n, whose coefficient of
    # p_rho is (-1)^(n - len(rho)) n! / z_rho
    z = zonal_power_sums(5)
    assert z[P([5])][P([3, 2])] == 160
    assert z[P([1] * 5)][P([3, 2])] == -120 // 6


def test_zonal_non_integer_coefficient_raises(monkeypatch):
    from pmscheme import symfunc

    # with z2([2]) = 3 instead of 4, the row of [2] is proportional to
    # 8 p_2 + 3 p_1^2, so scaling it to 1 at p_1^2 leaves 8/3 at p_2
    real_z2 = symfunc.z2
    monkeypatch.setattr(
        symfunc, "z2", lambda mu: 3 if mu == P([2]) else real_z2(mu)
    )
    with pytest.raises(SchemeError, match=r"J_\[2\]\^\(2\)"):
        zonal_power_sums(2)
