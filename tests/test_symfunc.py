import hashlib
import random
import sys
import threading
from fractions import Fraction

import pytest

from pmscheme import (
    CATALOG_PREFIXES,
    Dominance,
    Partition,
    PowerSumExpr,
    content,
    delta_closed_forms,
    delta_eval,
    dominance_compare,
    e_catalog,
    eval_expr,
    fit_e_mu,
    generate_partitions,
    intersection_numbers,
    monomial_basis,
    parse_power_sum_expr,
    successors,
    symfunc,
    zonal_power_sums,
)
from pmscheme.errors import FitInconsistent, FitUnderdetermined, SchemeError
from pmscheme.partitions import dim_hook, z2

P = Partition
P1 = PowerSumExpr({P([1]): [1]})
P2 = PowerSumExpr({P([2]): [1]})
P3 = PowerSumExpr({P([3]): [1]})
P1SQ = PowerSumExpr({P([1, 1]): [1]})


def test_eval_examples():
    e2 = e_catalog(P([2]))
    assert eval_expr(e2, P([5])) == 20
    assert eval_expr(e2, P([4, 1])) == 11
    assert eval_expr(e_catalog(P([3])), P([1, 1, 1, 1, 1])) == 20


def test_eval_constant_term():
    one = PowerSumExpr({P(): [1]})
    for lam in generate_partitions(5):
        assert eval_expr(one, lam) == 1


def test_catalog_spot_values():
    assert eval_expr(e_catalog(P([3, 2])), P([6])) == 960
    assert eval_expr(e_catalog(P([5])), P([5, 1])) == 192
    assert eval_expr(e_catalog(P([2, 2])), P([5, 1])) == 48
    # each catalog expression is built once and shared, so it is read-only
    assert all(e_catalog(p) is e_catalog(p) for p in CATALOG_PREFIXES)
    with pytest.raises(AttributeError):
        e_catalog(P([2])).int_terms = ()
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
        degrees = {P(parts): len(cs) - 1 for cs, parts in e_catalog(prefix).int_terms}
        assert set(degrees) <= allowed
        for mono, bound in monomial_basis(prefix):
            if mono in degrees:
                assert degrees[mono] <= bound


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


def test_text_parsers_refuse_a_repeated_term():
    # to_text writes each monomial and each degree once; a text that
    # repeats one is not canonical and is refused, not summed
    with pytest.raises(ValueError, match=r"monomial p\[1\] repeated"):
        parse_power_sum_expr("(1)*p[1] + (2)*p[1]")
    with pytest.raises(ValueError, match="degree 1 repeated"):
        parse_power_sum_expr("(1*t + 2*t)*p[1]")
    assert parse_power_sum_expr("(1)*p[1] + (2)*p[2]") == PowerSumExpr(
        {P([1]): [1], P([2]): [2]}
    )


def test_text_parser_names_a_term_with_a_zero_denominator():
    with pytest.raises(ValueError, match=r"zero denominator in term '\(1/0\)\*p\[1\]'"):
        parse_power_sum_expr("(1/0)*p[1]")
    with pytest.raises(ValueError, match=r"'\(1 \+ 3/0\*t\)\*p\[2\]'"):
        parse_power_sum_expr("(1)*p[1] + (1 + 3/0*t)*p[2]")


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
    fitted = fit_e_mu(prefix, columns(prefix, range(5, 9)))
    assert fitted == e_catalog(prefix)
    # and the fit reproduces the held-out column at n = 9
    held_out = [eval_expr(fitted, lam) for lam in generate_partitions(9)]
    assert held_out == columns(prefix, (9,))[0][1]


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
    assert [eval_expr(undersampled, lam) for lam in generate_partitions(7)] != col7


def test_fit_checks_the_last_value_of_the_last_column():
    # solve_unique reaches full rank before the last row, which only its
    # integer check of every row sees
    prefix = P([2])
    expr = e_catalog(prefix)
    data = [
        (n, [int(eval_expr(expr, lam)) for lam in generate_partitions(n)])
        for n in range(3, 7)
    ]
    assert fit_e_mu(prefix, data) == expr
    data[-1][1][-1] += 1
    with pytest.raises(FitInconsistent):
        fit_e_mu(prefix, data)


def _flips(n):
    """The flip class matrix N of n, counted by cut and join: row c lists
    the (d, N[c][d]) with N[c][d] nonzero."""
    lams = generate_partitions(n)
    at = {lam: d for d, lam in enumerate(lams)}
    return [
        [(at[mu], count) for mu, count in symfunc._flip_counts(rho).items()]
        for rho in lams
    ]


def _flip_matrix(n):
    """The dense flip class matrix N of n."""
    flips = _flips(n)
    dense = [[0] * len(flips) for _ in flips]
    for row, entries in zip(dense, flips):
        for d, count in entries:
            row[d] = count
    return dense


def test_flip_matrix_is_the_brute_force_flip_class_matrix(idata):
    for n in range(2, 11):
        data = idata(n) if n <= 8 else intersection_numbers(n, max_n=10)
        brute = data.b_matrix(data.index(P([2] + [1] * (n - 2))))
        at = [data.index(lam) for lam in generate_partitions(n)]
        assert _flip_matrix(n) == [[brute[c][d] for d in at] for c in at], n


def test_flip_matrix_rows_sum_to_the_flip_valency():
    for n in range(2, 17):
        assert {sum(row) for row in _flip_matrix(n)} == {n * (n - 1)}, n


def test_zonal_rows_are_left_eigenvectors_of_the_flip_matrix():
    # row . N = theta_lam row, the cut-and-join eigen-equation, past the
    # guard; the chain never reads N, so this checks it independently
    for n in range(2, 17):
        flips = _flips(n)
        for lam, row in zip(generate_partitions(n), symfunc.zonal_rows(n)):
            image = [0] * len(row)
            for x, entries in zip(row, flips):
                for d, count in entries:
                    image[d] += x * count
            theta = symfunc._flip_eigenvalue(lam)
            assert image == [theta * x for x in row], (n, lam)


# sha256 of the rows of zonal_rows(n), each row's integers joined by commas
# on one line: the first n past DEFAULT_ZONAL_MAX_N as the integer
# elimination over the p_k m_nu merge counts (commit 0e9c7ee) wrote them,
# and 17 and 18 as the chain by the cut-and-join projector (commit
# d66c4ed) wrote them
ZONAL_ROWS_SHA256 = {
    15: "d0314b155f510d4e8ed0387a1222cefd0f8242bcef2cd0c5191b3045499b76ff",
    16: "3a4813684617f036b717fe50589e6aee2da3b5739cacea567f9f2c3897fc0572",
    17: "37b3464b395d273e50a47706fcace95f75336c15823c6077a15f72f10d56a86c",
    18: "7aa8d3196a2c0bdfed4093e4260f4bf42f84b6360cb9b5c68addbb3aa3100cd9",
}


def test_zonal_rows_past_the_guard_match_the_elimination():
    for n, want in ZONAL_ROWS_SHA256.items():
        text = "".join(",".join(map(str, row)) + "\n" for row in symfunc.zonal_rows(n))
        assert hashlib.sha256(text.encode()).hexdigest() == want, n


@pytest.fixture
def fresh_plans():
    """Chain-step plans and the kept table dropped before and after the
    test, so a plan made from a doctored eigenvalue, or a table built from
    one, reaches no other test."""
    symfunc._plan.cache_clear()
    symfunc._last = symfunc._T1
    yield
    symfunc._plan.cache_clear()
    symfunc._last = symfunc._T1


def _reference_chain(top):
    """T(k) for k = 1..top, each step from the one before, from T(1)."""
    rows = {1: [[1]]}
    for k in range(2, top + 1):
        rows[k] = symfunc._chain_step(symfunc._plan(k), rows[k - 1], generate_partitions(k))
    return rows


@pytest.fixture
def plans_read(fresh_plans, monkeypatch):
    """The k of every plan the chain reads, in order, from fresh plans and
    no kept table."""
    read = []
    real = symfunc._plan

    def plan(k):
        read.append(k)
        return real(k)

    monkeypatch.setattr(symfunc, "_plan", plan)
    return read


@pytest.mark.parametrize(
    "order",
    [
        list(range(2, 13)),
        list(range(12, 1, -1)),
        [7, 7, 7, 12, 12, 1, 12],
        [5, 9, 3, 12, 6, 7, 0, 12, 2, 11, 10],
    ],
    ids=["ascending", "descending", "repeated", "mixed"],
)
def test_zonal_rows_resumed_or_not_match_the_chain_from_t1(order, fresh_plans):
    reference = _reference_chain(12)
    for n in order:
        assert symfunc.zonal_rows(n) == reference[max(n, 1)], (order, n)


def test_zonal_rows_hand_out_rows_the_next_call_does_not_read(fresh_plans):
    reference = _reference_chain(9)
    rows = symfunc.zonal_rows(8)
    rows[0][0] += 1
    rows[-1].append(5)
    rows.pop(3)
    assert symfunc.zonal_rows(9) == reference[9]
    symfunc.zonal_rows(9)[2][1] = 0
    assert symfunc.zonal_rows(9) == reference[9]


def test_zonal_rows_resume_from_the_last_table_only_past_it(plans_read):
    symfunc.zonal_rows(10)
    plans_read.clear()
    symfunc.zonal_rows(12)
    assert plans_read == [11, 12]
    plans_read.clear()
    # the same n again rebuilds from T(1), so a doctored plan is read
    symfunc.zonal_rows(12)
    assert plans_read == list(range(2, 13))
    plans_read.clear()
    symfunc.zonal_rows(1)
    symfunc.zonal_rows(0)
    symfunc.zonal_rows(13)
    assert plans_read == [13]


def test_zonal_rows_from_threads_each_match_the_chain_from_t1(fresh_plans):
    # each call reads the kept table once and replaces it whole, so a call
    # racing another resumes from one table or the other, never a mixture
    reference = _reference_chain(9)
    orders = [random.Random(seed).choices(range(2, 10), k=40) for seed in range(4)]
    wrong = []

    def work(order):
        for n in order:
            if symfunc.zonal_rows(n) != reference[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_zonal_rows_keep_their_table_when_a_step_fails(plans_read, monkeypatch):
    reference = _reference_chain(8)
    symfunc.zonal_rows(6)
    real = symfunc._chain_step

    def step(plan, prev, lams):
        if lams[0].n == 8:
            raise SchemeError("doctored step")
        return real(plan, prev, lams)

    monkeypatch.setattr(symfunc, "_chain_step", step)
    with pytest.raises(SchemeError, match="doctored step"):
        symfunc.zonal_rows(8)
    assert symfunc._last == (6, tuple(map(tuple, reference[6])))
    plans_read.clear()
    assert symfunc.zonal_rows(7) == reference[7]
    assert plans_read == [7]


def test_zonal_refuses_a_doctored_flip_eigenvalue(monkeypatch, fresh_plans):
    # with theta_[1,1] = 0 the step of J_[2] keeps the raise of J_[1] alone,
    # which is 2 p_2 and 0 at p_1^2
    real = symfunc._flip_eigenvalue
    monkeypatch.setattr(
        symfunc, "_flip_eigenvalue", lambda lam: 0 if lam == (1, 1) else real(lam)
    )
    with pytest.raises(SchemeError, match=r"J_\[2\]\^\(2\)"):
        symfunc.zonal_rows(2)


def _one_off(plan, field):
    """Copies of the plan with one entry moved by +1 or -1: a raise count
    (field ``raises``), or in one step its theta shift (``shifts``), the
    multiplier of one built row (``multipliers``), the common denominator L
    (``lcd``) or the expected p_(1^k) entry (``unit``)."""
    for delta in (1, -1):
        if field == "raises":
            for r, entry in enumerate(plan.raises):
                for i, (d, m) in enumerate(entry):
                    new = entry[:i] + ((d, m + delta),) + entry[i + 1 :]
                    raises = plan.raises[:r] + (new,) + plan.raises[r + 1 :]
                    yield plan._replace(raises=raises)
            continue
        for r, (src, shift, built, lcd, unit) in enumerate(plan.steps):
            if field == "shifts":
                edited = [] if shift is None else [(src, shift + delta, built, lcd, unit)]
            elif field == "multipliers":
                edited = [
                    (src, shift, built[:i] + ((j, m + delta),) + built[i + 1 :])
                    + (lcd, unit)
                    for i, (j, m) in enumerate(built)
                ]
            elif field == "lcd":
                edited = [(src, shift, built, lcd + delta, unit)]
            else:
                edited = [(src, shift, built, lcd, unit + delta)]
            for new in edited:
                yield plan._replace(steps=plan.steps[:r] + (new,) + plan.steps[r + 1 :])


# per kind of plan entry, the number of its +-1 edits for k = 2..8
OFF_BY_ONE = {"raises": 150, "shifts": 42, "multipliers": 182, "lcd": 130, "unit": 130}


@pytest.mark.parametrize("field", list(OFF_BY_ONE))
def test_zonal_refuses_a_plan_entry_off_by_one(field):
    # every such edit leaves a row whose p_(1^k) entry is not the expected
    # one, which does not divide it, or whose strata miss its contents
    refused = 0
    for k in range(2, 9):
        prev, lams = symfunc.zonal_rows(k - 1), generate_partitions(k)
        for plan in _one_off(symfunc._plan(k), field):
            with pytest.raises(SchemeError, match=r"J_\[[0-9,]+\]\^\(2\)"):
                symfunc._chain_step(plan, prev, lams)
            refused += 1
    assert refused == OFF_BY_ONE[field]


def test_pieri_coefficients_are_the_projections_of_p1_times_j_mu():
    # a_lam = <p_1 J_mu, J_lam> / <J_lam, J_lam> under <p_rho, p_sigma> =
    # delta z2(rho), the inner-product route the chain no longer takes
    for k in range(2, 13):
        lams, prev = generate_partitions(k), generate_partitions(k - 1)
        rows = dict(zip(lams, symfunc.zonal_rows(k)))
        at = {lam: d for d, lam in enumerate(lams)}
        weights = [z2(lam) for lam in lams]
        for mu, row in zip(prev, symfunc.zonal_rows(k - 1)):
            lifted = [0] * len(lams)
            for nu, c in zip(prev, row):
                lifted[at[nu + (1,)]] = c
            coeffs = [Fraction(num, den) for num, den in symfunc._pieri(mu)]
            assert all(a > 0 for a in coeffs) and sum(coeffs) == 1, mu
            for lam, a in zip(symfunc._grown(mu), coeffs):
                j = rows[lam]
                dot = sum(x * y * w for x, y, w in zip(lifted, j, weights))
                norm = sum(y * y * w for y, w in zip(j, weights))
                assert a == Fraction(dot, norm), (mu, lam)


def _contents_product(lam):
    """prod (t + 2(j-1) - (i-1)) over the cells (i, j) != (1,1) of lam,
    highest power first, one cell at a time."""
    q = [1]
    for i, part in enumerate(lam):
        for j in range(part):
            if (i, j) != (0, 0):
                q = [x + (2 * j - i) * y for x, y in zip(q + [0], [0] + q)]
    return tuple(q)


def test_content_strata_are_the_content_products_and_the_row_strata():
    for n in range(1, 13):
        lams = generate_partitions(n)
        strata = symfunc._content_strata(lams)
        assert strata == [_contents_product(lam) for lam in lams], n
        for lam, row, want in zip(lams, symfunc.zonal_rows(n), strata):
            sums = [0] * n
            for rho, c in zip(lams, row):
                sums[n - len(rho)] += c
            assert tuple(sums) == want, (n, lam)


def test_content_strata_tell_every_row_apart():
    # e_1..e_(n-1) fix the contents, which fix lam, so the keys of
    # _check_table stay distinct where multiplicity and flip entry do not
    for n in range(1, 31):
        strata = symfunc._content_strata(generate_partitions(n))
        assert len(set(strata)) == len(strata), n


def test_plans_read_no_dimension():
    symfunc._plan.cache_clear()
    before = dim_hook.cache_info()
    for k in range(2, 15):
        symfunc._plan(k)
    after = dim_hook.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_zonal_rows_start_at_the_empty_partition_and_refuse_negative_n():
    assert symfunc.zonal_rows(0) == symfunc.zonal_rows(1) == [[1]]
    for n in (-1, -2):
        with pytest.raises(ValueError, match="n >= 0"):
            symfunc.zonal_rows(n)


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


