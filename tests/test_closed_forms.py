import pytest

from qpartitions.closed_forms import (
    a2_via_p,
    a3_via_p,
    a4_via_p,
    aG1_via_p,
    bracket_polynomial,
    gf_a_m_diff,
    gf_a_m_sum,
    gf_a_m_thm,
    gf_a_m_thm_correction,
    gf_abar_m,
    gf_abar_m_alt,
    gf_areg,
    gf_areg_l2,
    gf_breg,
    gf_pbar,
    gf_ubar,
    remark7_rhs,
)
from qpartitions.enumeration import (
    count_a,
    count_a_diff,
    count_abar,
    count_areg,
    count_breg,
    count_p,
    count_p_fixed_diff,
    count_ubar,
)
from qpartitions.qobjects import Monomial, poch_finite, poch_finite_window
from qpartitions.series import LaurentSeries

from gaussian import gaussian_by_division
from generators import gen_overpartitions


def series_matches_counts(series, counter, upto):
    for n in range(1, upto):
        if series.coeff(n) != counter(n):
            return False, n
    return True, None


def test_a2_via_p():
    assert a2_via_p(4) == 3
    assert a2_via_p(1) == 0
    for n in range(1, 61):
        assert a2_via_p(n) == count_a(2, n)


def test_a3_a4_via_p():
    assert a3_via_p(4) == 15 - 7 - 22 + 15 == 1
    assert a3_via_p(6) == 33 - 15 - 44 + 30 == 4
    assert a4_via_p(5) == 28 - 11 - 30 - 44 + 30 + 84 - 56 == 1
    for n in range(1, 41):
        assert a3_via_p(n) == count_a(3, n)
        assert a4_via_p(n) == count_a(4, n)


@pytest.mark.parametrize("n", [0, -1, -3])
@pytest.mark.parametrize("formula", [a2_via_p, a3_via_p, a4_via_p], ids=lambda f: f.__name__)
def test_p_combinations_reject_n_below_one(formula, n):
    # a_m(n) is 0 below n = 1 but the combinations read 1, -1 or 1 there
    with pytest.raises(ValueError, match=r"^requires n >= 1$"):
        formula(n)


def test_aG1_via_p():
    for n in range(1, 31):
        assert aG1_via_p(2, n) == a2_via_p(n)
    assert aG1_via_p(3, 6) == 22 - 15 - 5 + 3 - 1 == 4
    for m in range(2, 7):
        for n in range(1, 41):
            assert aG1_via_p(m, n) == count_a(m, n)


def test_bracket_polynomial():
    b2 = bracket_polynomial(2)
    assert dict(b2.terms()) == {0: 2, -1: -1}
    b3 = bracket_polynomial(3)
    assert dict(b3.terms()) == {0: 3, -1: -1, -2: -2, -3: 1}
    for m in range(2, 7):
        bm = bracket_polynomial(m)
        assert bm.min_exp == -m * (m - 1) // 2
        assert bm.trunc_order == 1


def _reference_bracket(m):
    # 1 + sum_{k=1}^{m-1} (-1)^k prod_{i=0}^{k-1} (q^-(m-1-i) - 1) by dict
    # arithmetic, each product built from scratch
    total = {0: 1}
    for k in range(1, m):
        prod = {0: 1}
        for i in range(k):
            j = m - 1 - i
            nxt = {}
            for e, c in prod.items():
                nxt[e - j] = nxt.get(e - j, 0) + c
                nxt[e] = nxt.get(e, 0) - c
            prod = nxt
        sign = -1 if k % 2 else 1
        for e, c in prod.items():
            total[e] = total.get(e, 0) + sign * c
    lo = -m * (m - 1) // 2
    return LaurentSeries.polynomial([total.get(e, 0) for e in range(lo, 1)], lo)


def test_bracket_polynomial_matches_dict_reference():
    for m in range(2, 13):
        assert bracket_polynomial(m) == _reference_bracket(m), m


def test_gf_a_m_sum():
    gf = gf_a_m_sum(2, 20)
    assert gf.coeff(4) == 3
    for m in range(1, 7):
        ok, bad = series_matches_counts(gf_a_m_sum(m, 30), lambda n, m=m: count_a(m, n), 30)
        assert ok, (m, bad)
        for n in range(1, m):
            assert gf_a_m_sum(m, 30).coeff(n) == 0


def _reference_gf_a_m_sum(m, order):
    # the k-sum stepped on series values, each step a full-window value
    if m < 1 or order < 1:
        raise ValueError("requires m >= 1 and order >= 1")
    acc = LaurentSeries.zero(order)
    inv = poch_finite_window(Monomial.q(), 1, m, order).inverse(order)
    k = 0
    while k + m < order:
        term = inv
        for i in range(1, m):
            term = term.mul_binomial(1, k + i)
        acc = acc.add(term.shift(k + m).truncate(order))
        inv = inv.div_binomial(1, k + m + 1)
        k += 1
    return acc


def test_gf_a_m_sum_matches_series_valued_reference():
    # every order 1..80, so that each live-window edge is reached.  A window
    # is exact, so the reference at order 80 cut to a smaller order is the
    # reference at that order; it is called directly up to order m + 2,
    # which covers every empty sum (m >= order) and the first terms.
    for m in range(1, 8):
        ref = _reference_gf_a_m_sum(m, 80)
        for order in range(1, 81):
            want = _reference_gf_a_m_sum(m, order) if order <= m + 2 else ref.truncate(order)
            assert gf_a_m_sum(m, order) == want, (m, order)
    # wide windows for the multiplicities the catalog reads
    for m in (2, 3, 4):
        assert gf_a_m_sum(m, 400) == _reference_gf_a_m_sum(m, 400), m
    # 2^(m-1) terms of prod_(i<m)(1-q^(k+i)) exceed the live window, so the
    # sparse product is pruned
    for m in (10, 16):
        for order in (m, m + 1, m + 2, 40, 120):
            assert gf_a_m_sum(m, order) == _reference_gf_a_m_sum(m, order), (m, order)


@pytest.mark.parametrize("m", range(1, 9))
def test_gf_a_m_sum_subset_table_matches_reference(m):
    # P_k from the table of subsets of {1..m-1}: the first orders, where the
    # live window cuts most of its terms, and a wide one
    for order in (*range(max(m - 1, 1), m + 4), 300):
        assert gf_a_m_sum(m, order) == _reference_gf_a_m_sum(m, order), (m, order)


@pytest.mark.parametrize("m, order", [(0, 10), (-1, 10), (3, 0), (3, -5), (0, 0)])
def test_gf_a_m_sum_errors_match_reference(m, order):
    with pytest.raises(ValueError) as want:
        _reference_gf_a_m_sum(m, order)
    with pytest.raises(ValueError) as got:
        gf_a_m_sum(m, order)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("m, order", [(3, 60), (2, 802)])
def test_gf_a_m_sum_builds_one_series_value(monkeypatch, m, order):
    built = []
    post_init = LaurentSeries.__post_init__

    def counting(self):
        built.append(self.trunc_order)
        post_init(self)

    monkeypatch.setattr(LaurentSeries, "__post_init__", counting)
    gf_a_m_sum.cache_clear()
    s = gf_a_m_sum(m, order)
    assert (s.min_exp, s.trunc_order) == (0, order)
    assert 1 <= len(built) <= 3, len(built)  # the series-valued k-sum builds m + 3 per step


def test_gf_a_m_sum_is_nested_divisions_without_multiplies(monkeypatch):
    from qpartitions import closed_forms, series

    calls = {"mul": 0, "div": 0}
    mul, div = series._mul_binomial_list, series._div_binomial_list

    def spy_mul(x, c, j):
        calls["mul"] += 1
        mul(x, c, j)

    def spy_div(x, c, j):
        calls["div"] += 1
        div(x, c, j)

    for mod in (series, closed_forms):
        monkeypatch.setattr(mod, "_mul_binomial_list", spy_mul, raising=False)
        monkeypatch.setattr(mod, "_div_binomial_list", spy_div)
    gf_a_m_sum.cache_clear()
    order = 60
    gf_a_m_sum(3, order)
    assert calls["mul"] == 0, calls
    assert 1 <= calls["div"] <= order, calls


def test_gf_a_m_thm_and_correction():
    assert gf_a_m_thm(2, 10).coeff(4) == 3
    for m in range(2, 7):
        thm = gf_a_m_thm(m, 40)
        s = gf_a_m_sum(m, 40)
        for n in range(1, 40):
            assert thm.coeff(n) == s.coeff(n), (m, n)
    # the m = 2 correction is 1 - 1/q
    d2 = gf_a_m_thm_correction(2, 10)
    assert dict(d2.terms()) == {0: 1, -1: -1}


def test_gf_a_m_diff_against_enumeration():
    for l in range(2, 7):
        for m in range(1, l):
            gf = gf_a_m_diff(m, l, 35)
            ok, bad = series_matches_counts(
                gf, lambda n, m=m, l=l: count_a_diff(m, n, l), 35
            )
            assert ok, (m, l, bad)
            val = gf.valuation()
            assert val == l + m + 1


def _reference_gf_a_m_diff(m, l, order):
    # the closed form built from the exact polynomials, then one window
    depth = (m + 1) * (m + 2) // 2
    work = order + depth
    q = Monomial.q()
    bracket = poch_finite(q, 1, l)
    for j in range(m + 1):
        sign = -1 if j % 2 else 1
        bracket = bracket.sub(gaussian_by_division(l, j).shift(j + j * (j - 1) // 2).scale(sign))
    num = poch_finite(q, 1, m).mul(poch_finite(q, 1, l - m - 1))
    den_inv = poch_finite(q, 1, l).mul(poch_finite(q, 1, l)).inverse(work)
    sign = 1 if m % 2 else -1
    series = num.mul(bracket).mul(den_inv).scale(sign).shift(l + m + 1 - depth)
    return series.truncate(order)


def test_gf_a_m_diff_matches_exact_polynomial_reference():
    # the window edges: the result's window opens at order l+m+1-depth
    # and its first coefficient that can be nonzero is at l+m+1
    for l in range(2, 13):
        for m in range(1, l):
            lead = l + m + 1
            low = lead - (m + 1) * (m + 2) // 2
            edges = {1, 2, low - 1, low, low + 1, lead - 1, lead, lead + 1, 30, 60}
            for order in sorted(o for o in edges if 1 <= o <= 60):
                want = _reference_gf_a_m_diff(m, l, order)
                assert gf_a_m_diff(m, l, order) == want, (m, l, order)


def test_gf_a_m_diff_builds_only_its_window(monkeypatch):
    m, l, order = 2, 300, 10
    work = order + (m + 1) * (m + 2) // 2
    windows = []
    post_init = LaurentSeries.__post_init__

    def recording(self):
        windows.append((self.min_exp, self.trunc_order))
        post_init(self)

    monkeypatch.setattr(LaurentSeries, "__post_init__", recording)
    gf_a_m_diff.cache_clear()
    assert gf_a_m_diff(m, l, order).trunc_order == order
    assert windows
    wide = [w for w in windows if w[1] > work or w[1] - w[0] > work]
    assert not wide, wide[:5]


def test_gf_a_m_diff_domain():
    # the closed form needs l >= m + 1: l = m is the boundary, and the
    # check must refuse it before any factor is built
    for m, l in ((3, 3), (2, 2), (4, 3), (5, 2)):
        with pytest.raises(ValueError) as err:
            gf_a_m_diff(m, l, 20)
        assert str(err.value) == (f"closed form needs l >= m+1 (got m={m}, l={l}); "
                                  "use the enumeration counters for narrower differences")
    with pytest.raises(ValueError, match="requires difference l > 1"):
        gf_a_m_diff(1, 1, 20)
    # the closed form needs m >= 1, which is checked before l
    for m, l in ((0, 4), (-1, 4), (0, 1), (-3, 2)):
        with pytest.raises(ValueError, match="requires m >= 1"):
            gf_a_m_diff(m, l, 20)


def test_gf_pbar():
    gf = gf_pbar(5)
    assert [gf.coeff(n) for n in range(5)] == [1, 2, 4, 8, 14]


def test_gf_abar_m():
    assert gf_abar_m(2, 5).coeff(2) == 2
    for m in range(1, 5):
        ok, bad = series_matches_counts(
            gf_abar_m(m, 25), lambda n, m=m: count_abar(m, n), 25
        )
        assert ok, (m, bad)


def test_gf_abar_m_alt_builds():
    # no enumeration claim for the alternative overline convention; the
    # series must build and start at q^m with a leading 1
    for m in (1, 2, 3):
        gf = gf_abar_m_alt(m, 21)
        assert gf.valuation() == m
        assert gf.coeff(m) == 1
    # term by term, q^(mk) (-q^k)_inf / (q^k)_inf counts the overpartitions
    # of n - mk whose parts are all at least k, read here off the generator
    at_least = {(k, n): sum(1 for _ in gen_overpartitions(n, min_part=k))
                for k in range(1, 21) for n in range(21)}
    for m in (1, 2, 3):
        gf = gf_abar_m_alt(m, 21)
        for n in range(21):
            want = sum(at_least[k, n - m * k] for k in range(1, n // m + 1))
            assert gf.coeff(n) == want, (m, n)


def test_gf_ubar_matches_oracle():
    gf = gf_ubar(46)
    assert gf.coeff(1) == 0
    for n in range(45, 0, -1):  # largest n first: one sweep
        assert gf.coeff(n) == count_ubar(n), n


def test_gf_breg_and_areg():
    for l in (2, 3, 4):
        ok, bad = series_matches_counts(
            gf_breg(l, 30), lambda n, l=l: count_breg(l, n), 30
        )
        assert ok, (l, bad)
    assert gf_areg(2, 2, 6).coeff(4) == 1
    for l in (2, 3, 4):
        for m in (1, 2, 3):
            ok, bad = series_matches_counts(
                gf_areg(m, l, 25), lambda n, m=m, l=l: count_areg(m, l, n), 25
            )
            assert ok, (m, l, bad)
    for m in range(1, 5):
        assert gf_areg_l2(m, 40).eq_to(gf_areg(m, 2, 40), 40)


def test_remark7_rhs():
    assert remark7_rhs(4) == 1 + count_p(2) == 3 == count_p_fixed_diff(8, 4)
    assert remark7_rhs(6) == count_p_fixed_diff(12, 6)
    # the displayed formula is off by one at n = 2 and at odd n; the
    # harness reports this instead of repairing it
    assert remark7_rhs(2) == count_p_fixed_diff(4, 2) + 1
    assert remark7_rhs(9) == count_p_fixed_diff(18, 9) + 1
    for n in range(4, 41, 2):
        assert remark7_rhs(n) == count_p_fixed_diff(2 * n, n)


def test_window_soundness_of_builders():
    # recomputing at a higher order never changes the smaller window
    pairs = [
        (gf_a_m_sum(3, 20), gf_a_m_sum(3, 45)),
        (gf_a_m_thm(4, 20), gf_a_m_thm(4, 45)),
        (gf_pbar(15), gf_pbar(40)),
        (gf_breg(3, 15), gf_breg(3, 40)),
        (gf_ubar(12), gf_ubar(24)),
        (gf_a_m_diff(2, 5, 20), gf_a_m_diff(2, 5, 40)),
    ]
    for small, big in pairs:
        assert big.eq_to(small, small.trunc_order)
