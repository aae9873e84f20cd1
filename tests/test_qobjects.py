import random
from collections import Counter

import pytest

from qpartitions import identities
from qpartitions.enumeration import count_a, count_p, gen_partitions
from qpartitions.qobjects import (
    Monomial,
    PochhammerError,
    euler_qinf,
    multi_poch_infinite,
    poch_finite,
    poch_finite_window,
    poch_infinite,
    q_hyper_sum,
    qbin,
    qbinomial_theorem_lhs_rhs,
)
from qpartitions.series import LaurentSeries, NonInvertibleError, WindowError

Q = Monomial.q()


def coeffs(series, upto):
    return [series.coeff(e) if series.min_exp <= e else 0 for e in range(upto)]


def test_monomial_basics():
    assert Monomial(1, 2).times(Monomial(-1, 3)) == Monomial(-1, 5)
    assert Monomial.zero().times(Q) == Monomial.zero()
    assert Monomial(1, 5).over(Monomial(-1, 2)) == Monomial(-1, 3)
    with pytest.raises(ValueError):
        Monomial(1, 1).over(Monomial(1, 2))
    with pytest.raises(ValueError):
        Monomial(2, -1)


def test_poch_finite_examples():
    assert poch_finite(Q, 1, 0).coeff(0) == 1
    p3 = poch_finite(Q, 1, 3)
    assert coeffs(p3, 7) == [1, -1, -1, 0, 1, 1, -1]
    p = poch_finite(Monomial(-1, 1), 1, 2)
    assert coeffs(p, 4) == [1, 1, 1, 1]


def test_poch_finite_window_matches_exact():
    full = poch_finite(Q, 1, 6)
    win = poch_finite_window(Q, 1, 6, 10)
    assert win.eq_to(full.extend(22), 10)


def test_poch_infinite_examples():
    assert poch_infinite(Monomial.zero(), 1, 9).coeff(0) == 1
    p = poch_infinite(Q, 1, 13)
    assert coeffs(p, 13) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    with pytest.raises(PochhammerError):
        poch_infinite(Monomial(1, 0), 1, 10)


def _reference_poch(a, step, n, order):
    # factor by factor on series values
    out = LaurentSeries.one(order)
    for i in range(n):
        e = a.exp + step * i
        if e >= order:
            break
        out = out.scale(1 - a.coeff) if e == 0 else out.mul_binomial(a.coeff, e)
    return out


def test_poch_products_match_factor_by_factor_reference():
    rng = random.Random(1729)
    for _ in range(300):
        order, step, n = rng.randint(1, 80), rng.randint(1, 3), rng.randint(0, 30)
        c = rng.choice((0, 1, -1, 2, -3))
        a = Monomial(c, rng.randint(0, 5) if c else 0)
        assert poch_finite_window(a, step, n, order) == _reference_poch(a, step, n, order)
        if a.exp >= 1 or a.is_zero():
            assert poch_infinite(a, step, order) == _reference_poch(a, step, order, order)


def test_euler_product_identity():
    # (-q)_inf (q)_inf = (q^2; q^2)_inf
    n = 60
    lhs = poch_infinite(Monomial(-1, 1), 1, n).mul(poch_infinite(Q, 1, n))
    rhs = poch_infinite(Monomial(1, 2), 2, n)
    assert lhs.eq_to(rhs, n)


def test_euler_qinf_matches_product():
    for n in (13, 60, 200):
        assert euler_qinf(n).eq_to(poch_infinite(Q, 1, n), n)
    assert euler_qinf(8).coeff(0) == 1
    assert euler_qinf(8).coeff(5) == 1


def test_partition_gf_against_enumeration():
    inv = euler_qinf(41).inverse(41)
    assert inv.coeff(0) == 1
    for n in range(21):
        assert inv.coeff(n) == sum(1 for _ in gen_partitions(n))
    for n in range(1, 41):
        # count_a(1, .) is the enumeration-backed total; count_p the recurrence
        assert inv.coeff(n) == count_a(1, n) == count_p(n)


def test_multi_poch():
    n = 30
    assert multi_poch_infinite([Q], 1, n).eq_to(poch_infinite(Q, 1, n), n)
    assert multi_poch_infinite([], 1, 9).coeff(0) == 1
    # 1/(q; q^2)_inf and 1/(q, q^2; q^3)_inf count 2- and 3-regular partitions
    from qpartitions.enumeration import count_breg

    inv = multi_poch_infinite([Monomial(1, 1)], 2, n).inverse(n)
    for m in range(1, n):
        assert inv.coeff(m) == count_breg(2, m)
    inv = multi_poch_infinite([Monomial(1, 1), Monomial(1, 2)], 3, n).inverse(n)
    for m in range(1, n):
        assert inv.coeff(m) == count_breg(3, m)


def test_qbin_examples():
    assert coeffs(qbin(5, 0), 1) == [1]
    assert coeffs(qbin(4, 2), 5) == [1, 1, 2, 1, 1]
    assert qbin(3, -1).is_zero()
    assert qbin(3, 4).is_zero()


def test_qbin_symmetry_and_pascal():
    for a in range(13):
        for b in range(a + 1):
            lhs = qbin(a, b)
            rhs = qbin(a, a - b)
            w = max(lhs.trunc_order, rhs.trunc_order)
            assert lhs.extend(w).eq_to(rhs.extend(w), w)
            assert all(c >= 0 for _, c in lhs.terms())
            deg = max((e for e, c in lhs.terms() if c), default=0)
            assert deg == b * (a - b)
            if a >= 1 and 0 <= b:
                rec = qbin(a - 1, b - 1).extend(w + b)
                rec = rec.add(qbin(a - 1, b).extend(w).shift(b).truncate(w + b))
                assert lhs.extend(w + b).eq_to(rec, w)


def test_qbinomial_theorem():
    lhs, rhs = qbinomial_theorem_lhs_rhs(0, Q, 5)
    assert lhs.coeff(0) == 1 and lhs.eq_to(rhs, 5)
    lhs, rhs = qbinomial_theorem_lhs_rhs(3, Q, 10)
    assert lhs.eq_to(rhs, 10)
    assert lhs.eq_to(poch_finite(Q, 1, 3).extend(10), 7)
    lhs, rhs = qbinomial_theorem_lhs_rhs(5, Monomial(-1, 2), 40)
    assert lhs.eq_to(rhs, 40)
    with pytest.raises(WindowError):
        qbinomial_theorem_lhs_rhs(8, Monomial(1, 3), 10)


def test_q_hyper_sum_geometric():
    # with no parameters: sum t^k/(q)_k = 1/(t)_inf  (checked deeper in the
    # identities suite; smoke-test one instance here)
    w = 30
    s = q_hyper_sum((), (), Q, w)
    assert s.eq_to(poch_infinite(Q, 1, w).inverse(w), w)
    assert q_hyper_sum((), (), Monomial.zero(), 7).coeff(0) == 1


def _reference_q_hyper_sum(uppers, lowers, t, order):
    # The term-by-term algorithm on series values: every step builds and
    # truncates LaurentSeries values, and each term is added as a series.
    if order < 1:
        raise WindowError("order must be at least 1")
    if t.is_zero():
        return LaurentSeries.one(order)
    if t.exp < 1:
        raise PochhammerError(f"series in powers of {t} does not truncate")
    uppers = [u for u in uppers if not u.is_zero()]
    lowers = [l for l in lowers if not l.is_zero()]
    acc = LaurentSeries.one(order)
    term = LaurentSeries.one(order)
    k = 1
    while k * t.exp < order:
        for u in uppers:
            e = u.exp + k - 1
            if e == 0:
                term = term.scale(1 - u.coeff)
            elif e < order:
                term = term.mul_binomial(u.coeff, e)
        term = term.div_binomial(1, k)
        for l in lowers:
            e = l.exp + k - 1
            if e == 0:
                if 1 - l.coeff == -1:
                    term = term.scale(-1)
                elif 1 - l.coeff != 1:
                    raise NonInvertibleError(
                        f"lower parameter {l} produces a non-unit constant factor"
                    )
            else:
                term = term.div_binomial(l.coeff, e)
        term = term.shift(t.exp).scale(t.coeff).truncate(order)
        acc = acc.add(term)
        k += 1
    return acc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _random_monomial(rng, max_exp):
    c = rng.choice((0, 1, -1, 2, -2, 3))
    if c == 0:
        return Monomial.zero()
    return Monomial(c, 0 if rng.random() < 0.2 else rng.randint(1, max_exp))


def test_q_hyper_sum_matches_term_by_term_reference():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(750):
        order = rng.randint(-1, 70)
        uppers = [_random_monomial(rng, 4) for _ in range(rng.randint(0, 3))]
        lowers = [_random_monomial(rng, max(order, 0) + 5) for _ in range(rng.randint(0, 2))]
        t = Monomial(rng.choice((1, -1, 2, -2)), rng.choice((0, 1, 1, 1, 2, 2, 3, 4)))
        got = _outcome(q_hyper_sum, uppers, lowers, t, order)
        want = _outcome(_reference_q_hyper_sum, uppers, lowers, t, order)
        assert got == want, (uppers, lowers, t, order)
        seen[want[0].__name__ if isinstance(want, tuple) else "value"] += 1
        seen["zero param"] += any(m.is_zero() for m in uppers + lowers)
        seen["negative coeff"] += any(m.coeff < 0 for m in uppers + lowers + [t])
        seen["lower past window"] += any(l.exp >= order for l in lowers)
        seen[f"t.coeff {t.coeff}"] += 1
    # the draws cover what the comparison is meant to exercise
    assert seen["value"] >= 500, seen
    for kind in ("WindowError", "PochhammerError", "NonInvertibleError", "zero param",
                 "negative coeff", "lower past window",
                 "t.coeff 1", "t.coeff -1", "t.coeff 2", "t.coeff -2"):
        assert seen[kind] >= 10, (kind, seen)


@pytest.mark.parametrize(
    "uppers, lowers, t, order, exc",
    [
        ((Q,), (), Q, 0, WindowError),
        ((Q,), (), Q, -1, WindowError),
        ((Q,), (), Monomial(2, 0), 10, PochhammerError),
        ((Q,), (Monomial(3, 0),), Q, 10, NonInvertibleError),
        ((Q,), (Monomial(1, 0),), Q, 10, NonInvertibleError),
    ],
)
def test_q_hyper_sum_errors_match_reference(uppers, lowers, t, order, exc):
    with pytest.raises(exc) as got:
        q_hyper_sum(uppers, lowers, t, order)
    with pytest.raises(exc) as want:
        _reference_q_hyper_sum(uppers, lowers, t, order)
    assert str(got.value) == str(want.value)


def test_q_hyper_sum_builds_one_series_value(monkeypatch):
    built = []
    post_init = LaurentSeries.__post_init__

    def counting(self):
        built.append(self.trunc_order)
        post_init(self)

    monkeypatch.setattr(LaurentSeries, "__post_init__", counting)
    s = q_hyper_sum((Monomial(-1, 1), Monomial(1, 2)), (Monomial(1, 3),), Q, 60)
    assert (s.min_exp, s.trunc_order) == (0, 60)
    assert len(built) <= 2, len(built)  # the term-by-term form builds about 5 per step


def test_heine_inverts_each_pochhammer_once(monkeypatch):
    inverted = Counter()
    inverse = LaurentSeries.inverse

    def counting(self, order):
        inverted[self, order] += 1
        return inverse(self, order)

    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    identities._inverse_poch.cache_clear()
    report = identities.verify("heine", order=60)
    assert report.status == "verified"
    assert inverted and max(inverted.values()) == 1, inverted.most_common(3)
