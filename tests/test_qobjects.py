import random
from collections import Counter
from itertools import permutations

import pytest

from qpartitions import dsl, identities, qobjects
from qpartitions.enumeration import count_a, count_p
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

from gaussian import gaussian_by_division
from generators import gen_partitions

Q = Monomial.q()


def coeffs(series, upto):
    return [series.coeff(e) for e in range(upto)]


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
    assert win.eq_to(full, 10) and full.exact and not win.exact
    # a negative length is an error on every window, as in poch_finite
    with pytest.raises(ValueError, match="finite product length must be non-negative"):
        poch_finite_window(Q, 1, -1, 5)


def test_poch_infinite_examples():
    assert poch_infinite(Monomial.zero(), 1, 9).coeff(0) == 1
    p = poch_infinite(Q, 1, 13)
    assert coeffs(p, 13) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    with pytest.raises(PochhammerError):
        poch_infinite(Monomial(1, 0), 1, 10)
    # the window is checked before the factor count, which is the order
    with pytest.raises(WindowError, match="order must be at least 1"):
        poch_infinite(Q, 1, -1)


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
    # a unit parameter's log-derivative recurrence: plain below and at one
    # block (48), by halves past it, five levels deep at 1500
    for c in (1, -1):
        for e in (1, 2, 3):
            a = Monomial(c, e)
            for step in (1, 2, 3, 10):
                for order in (1, 2, 47, 48, 49, 97):
                    assert poch_infinite(a, step, order) == _reference_poch(a, step, order, order)
    for c, e, step in ((-1, 1, 10), (1, 2, 10), (-1, 3, 10), (-1, 2, 2), (1, 3, 3)):
        a = Monomial(c, e)
        assert poch_infinite(a, step, 1500) == _reference_poch(a, step, 1500, 1500)
    assert poch_infinite(Q, 1, 1500) == euler_qinf(1500)
    # any other parameter keeps the factor loop
    for a in (Monomial(2, 1), Monomial(-3, 2)):
        for step in (1, 3):
            for order in (49, 97):
                assert poch_infinite(a, step, order) == _reference_poch(a, step, order, order)


def test_log_derivative_solver_raises_on_a_remainder():
    # 2 P_2 = L_2 + L_1 P_1 = 1 in a plain block, and 60 P_60 = L_60 P_0 = 1
    # with L_60 P_0 added by the halves' product: no integer P solves either
    node = dsl.parse("poch(q;1;inf)")
    for logd in ([0, 0, 1], [0] * 60 + [1] + [0] * 39):
        with pytest.raises(ArithmeticError, match="is not a multiple of") as info:
            qobjects._from_log_derivative(logd)
        assert not isinstance(info.value, ValueError)
        # an internal error, which the expression language does not report
        # as the user's mistake
        with pytest.raises(ArithmeticError) as info:
            dsl._guarded(node, qobjects._from_log_derivative, logd)
        assert not isinstance(info.value, dsl.DslEvalError)


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
    # with no parameters the product still checks its step and order
    with pytest.raises(ValueError, match="step must be a positive integer"):
        multi_poch_infinite([], 0, 5)
    for params in ([], [Q]):
        with pytest.raises(WindowError, match="order must be at least 1"):
            multi_poch_infinite(params, 1, 0)
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
            assert lhs.exact and lhs == rhs
            assert all(c >= 0 for _, c in lhs.terms())
            deg = max((e for e, c in lhs.terms() if c), default=0)
            assert deg == b * (a - b)
            if a >= 1 and 0 <= b:
                rec = qbin(a - 1, b - 1).add(qbin(a - 1, b).shift(b))
                assert rec.exact and lhs.sub(rec).is_zero()


def test_qbinomial_theorem():
    lhs, rhs = qbinomial_theorem_lhs_rhs(0, Q, 5)
    assert lhs.coeff(0) == 1 and lhs.eq_to(rhs, 5)
    lhs, rhs = qbinomial_theorem_lhs_rhs(3, Q, 10)
    assert lhs.eq_to(rhs, 10)
    assert lhs.eq_to(poch_finite(Q, 1, 3), 10) and lhs.trunc_order == 10
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
        # two bad lowers: the message names the first in the caller's order
        ((Q,), (Monomial(3, 0), Monomial(1, 0)), Q, 10, NonInvertibleError),
    ],
)
def test_q_hyper_sum_errors_match_reference(uppers, lowers, t, order, exc):
    with pytest.raises(exc) as want:
        _reference_q_hyper_sum(uppers, lowers, t, order)
    for _ in range(2):  # errors are never cached: every call raises
        with pytest.raises(exc) as got:
            q_hyper_sum(uppers, lowers, t, order)
        assert str(got.value) == str(want.value)


def _clear_caches():
    # every memo table a serieswise case reads, so each test builds cold
    for module in (qobjects, identities):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize(
    "uppers, lowers, t",
    [
        ((Monomial(-1, 1), Monomial(1, 2), Monomial(2, 0)), (Monomial(1, 3), Monomial(-1, 1)), Q),
        ((Monomial(1, 1), Monomial(-1, 1), Monomial(1, 0)), (Monomial(2, 0), Monomial(1, 2)),
         Monomial(-2, 1)),
        ((Monomial(3, 2), Monomial(-2, 2)), (Monomial(1, 1), Monomial(1, 1)), Monomial(1, 2)),
    ],
)
def test_q_hyper_sum_memo_shares_one_value_per_normalized_key(uppers, lowers, t):
    _clear_caches()
    first = q_hyper_sum(uppers, lowers, t, 40)
    assert first == _reference_q_hyper_sum(uppers, lowers, t, 40)
    zero = Monomial.zero()
    for i, us in enumerate(permutations(uppers)):
        for j, ls in enumerate(permutations(lowers)):
            us_z = list(us)
            us_z.insert(i % (len(us) + 1), zero)
            ls_z = [zero, *ls, zero] if j % 2 else list(ls)
            for u_args, l_args in ((us, ls), (us_z, ls_z), (list(us_z), tuple(ls_z))):
                assert q_hyper_sum(u_args, l_args, t, 40) is first
    assert qobjects._q_hyper_sum.cache_info().misses == 1
    # a different t or order is a different value
    assert q_hyper_sum(uppers, lowers, t, 41) is not first
    assert q_hyper_sum((), (), zero, 40) is q_hyper_sum(uppers, lowers, zero, 40)


@pytest.mark.parametrize(
    "uppers, lowers",
    [
        ((Monomial(-1, 1), Monomial(1, 2)), (Monomial(1, 3),)),
        # an exponent-0 upper with factor 2, and the exponent-0 lower 2
        ((Monomial(-1, 0), Monomial(2, 1)), (Monomial(2, 0), Monomial(-1, 2))),
        # an exponent-0 upper with factor 0: every term past k = 0 vanishes
        ((Monomial(1, 0), Q), (Monomial(2, 0),)),
    ],
)
def test_q_hyper_sum_t_and_minus_t_share_one_recurrence(uppers, lowers):
    _clear_caches()
    for c in (1, 2, 3):
        for e in (1, 2, 3):
            misses = qobjects._q_hyper_halves.cache_info().misses
            for t in (Monomial(c, e), Monomial(-c, e)):
                got = q_hyper_sum(uppers, lowers, t, 40)
                assert got == _reference_q_hyper_sum(uppers, lowers, t, 40), t
            assert qobjects._q_hyper_halves.cache_info().misses == misses + 1, (c, e)


def test_qbin_memo_matches_pochhammer_quotient():
    _clear_caches()
    for a in range(13):
        for b in range(-1, a + 2):
            value = qbin(a, b)
            assert value == gaussian_by_division(a, b), (a, b)
            assert qbin(a, b) is value
    assert qbin.cache_info().misses == sum(a + 3 for a in range(13))


def test_q_hyper_sum_builds_one_series_value(monkeypatch):
    built = []
    post_init = LaurentSeries.__post_init__

    def counting(self):
        built.append(self.trunc_order)
        post_init(self)

    monkeypatch.setattr(LaurentSeries, "__post_init__", counting)
    qobjects._q_hyper_sum.cache_clear()
    s = q_hyper_sum((Monomial(-1, 1), Monomial(1, 2)), (Monomial(1, 3),), Q, 60)
    assert (s.min_exp, s.trunc_order) == (0, 60)
    assert 1 <= len(built) <= 2, len(built)  # the term-by-term form builds about 5 per step


def test_heine_inverts_each_pochhammer_once(monkeypatch):
    inverted = Counter()
    inverse = LaurentSeries.inverse

    def counting(self, order):
        inverted[self, order] += 1
        return inverse(self, order)

    monkeypatch.setattr(LaurentSeries, "inverse", counting)
    identities._poch_ratio.cache_clear()
    report = identities.verify("heine", order=60)
    assert report.status == "verified"
    assert inverted and max(inverted.values()) == 1, inverted.most_common(3)


def test_serieswise_grid_builds_each_value_once(monkeypatch):
    _clear_caches()
    sums, binomials, muls = Counter(), Counter(), Counter()
    real_sum, real_qbin, real_mul = q_hyper_sum, qbin, LaurentSeries.mul

    def recording_sum(uppers, lowers, t, order):
        key = (t, order) if t.is_zero() else (
            tuple(sorted((u.exp, u.coeff) for u in uppers if not u.is_zero())),
            tuple(sorted((l.exp, l.coeff) for l in lowers if not l.is_zero())), t, order)
        sums[key] += 1
        return real_sum(uppers, lowers, t, order)

    def recording_qbin(a, b):
        binomials[a, b] += 1
        return real_qbin(a, b)

    def counting_mul(self, other):
        muls["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(identities, "q_hyper_sum", recording_sum)
    monkeypatch.setattr(qobjects, "qbin", recording_qbin)
    monkeypatch.setattr(LaurentSeries, "mul", counting_mul)
    for identity_id in ("cauchy", "cauchy_cor", "heine", "heine2", "qbinthm"):
        assert identities.verify(identity_id, order=60).status == "verified"
    # each distinct normalized sum and each qbin(a, b) is built once, though
    # the grid asks for many of them repeatedly
    built_sums = qobjects._q_hyper_sum.cache_info()
    assert built_sums.misses == built_sums.currsize == len(sums)
    assert built_sums.hits == sum(sums.values()) - len(sums) > 0
    built_qbins = real_qbin.cache_info()
    assert built_qbins.misses == built_qbins.currsize == len(binomials)
    assert built_qbins.hits == sum(binomials.values()) - len(binomials) > 0
    assert muls["mul"] <= 1200, muls  # 2,442 with a product chain per case
