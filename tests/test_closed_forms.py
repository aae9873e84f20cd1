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


def series_matches_counts(series, counter, upto):
    for n in range(1, upto):
        c = series.coeff(n) if n >= series.min_exp else 0
        if c != counter(n):
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


def test_aG1_via_p():
    for n in range(1, 31):
        assert aG1_via_p(2, n) == a2_via_p(n)
    assert aG1_via_p(3, 6) == 22 - 15 - 5 + 3 - 1 == 4
    for m in range(2, 7):
        for n in range(1, 41):
            assert aG1_via_p(m, n) == count_a(m, n)


def test_bracket_polynomial():
    b2 = bracket_polynomial(2).series
    assert dict(b2.terms()) == {0: 2, -1: -1}
    b3 = bracket_polynomial(3).series
    assert dict(b3.terms()) == {0: 3, -1: -1, -2: -2, -3: 1}
    for m in range(2, 7):
        bm = bracket_polynomial(m).series
        assert bm.min_exp == -m * (m - 1) // 2
        assert bm.trunc_order == 1


def test_gf_a_m_sum():
    gf = gf_a_m_sum(2, 20)
    assert gf.coeff(4) == 3
    for m in range(1, 7):
        ok, bad = series_matches_counts(gf_a_m_sum(m, 30), lambda n, m=m: count_a(m, n), 30)
        assert ok, (m, bad)
        for n in range(1, m):
            assert gf_a_m_sum(m, 30).coeff(n) == 0


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


def test_gf_a_m_diff_domain():
    with pytest.raises(ValueError):
        gf_a_m_diff(3, 3, 20)
    with pytest.raises(ValueError):
        gf_a_m_diff(1, 1, 20)


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
