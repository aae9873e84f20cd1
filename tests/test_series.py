import random

import pytest

from qpartitions import series
from qpartitions.qobjects import Monomial, poch_finite
from qpartitions.series import LaurentSeries, NonInvertibleError, WindowError, _kronecker

LS = LaurentSeries


def geometric(order):
    # 1/(1-q) written out longhand
    return LS(0, (1,) * order, order)


def test_monomial_examples():
    one = LS.monomial(1, 0, 10)
    assert one.coeff(0) == 1 and all(one.coeff(e) == 0 for e in range(1, 10))
    m = LS.monomial(-1, 3, 10)
    assert m.coeff(3) == -1 and m.trunc_order == 10
    m = LS.monomial(2, -1, 5)
    assert m.coeff(-1) == 2 and m.min_exp == -1 and m.trunc_order == 5


def test_monomial_invalid_window():
    with pytest.raises(WindowError):
        LS.monomial(1, 5, 5)


def test_add_examples():
    one_plus_q = LS.from_coeffs([1, 1], 0, 4)
    one_minus_q = LS.from_coeffs([1, -1], 0, 4)
    s = one_plus_q.add(one_minus_q)
    assert s.coeff(0) == 2 and s.coeff(1) == 0

    a = LS.monomial(1, -1, 4)
    assert a.add(a.neg()).is_zero()

    a = LS.from_coeffs([1, -1, -1, 1], 0, 4)
    b = LS.from_coeffs([0, 1, 1], 0, 3)
    s = a.add(b)
    assert s.trunc_order == 3 and s.min_exp == 0
    assert [s.coeff(e) for e in range(3)] == [1, 0, 0]


def test_mul_examples():
    order = 12
    one_minus_q = LS.from_coeffs([1, -1], 0, order)
    geo = geometric(order)
    prod = one_minus_q.mul(geo)
    assert prod.coeff(0) == 1
    assert all(prod.coeff(e) == 0 for e in range(1, prod.trunc_order))
    assert prod.trunc_order == order  # window [0, N) retained

    # (1-q)(1-q^2)(1-q^3) expanded exactly
    f = LS.from_coeffs([1, -1], 0, 8)
    g = LS.from_coeffs([1, 0, -1], 0, 8)
    h = LS.from_coeffs([1, 0, 0, -1], 0, 8)
    prod = f.mul(g).mul(h).truncate(7)
    assert [prod.coeff(e) for e in range(7)] == [1, -1, -1, 0, 1, 1, -1]

    q_inv = LS.monomial(1, -1, 5)
    q = LS.monomial(1, 1, 5)
    assert q_inv.mul(q).coeff(0) == 1


def test_mul_window_rule():
    a = LS.from_coeffs([1, 2], min_exp=-1, order=4)   # window [-1, 4)
    b = LS.from_coeffs([3], min_exp=2, order=6)       # window [2, 6)
    prod = a.mul(b)
    assert prod.min_exp == 1
    assert prod.trunc_order == min(4 + 2, 6 + (-1))


def test_inverse_geometric():
    one_minus_q = LS.from_coeffs([1, -1], 0, 12)
    inv = one_minus_q.inverse(12)
    assert all(inv.coeff(e) == 1 for e in range(12))
    assert inv.coeff(7) == 1


def test_inverse_rejects_non_unit_and_zero():
    with pytest.raises(NonInvertibleError):
        LS.from_coeffs([2, 1], 0, 5).inverse(5)
    with pytest.raises(NonInvertibleError):
        LS.zero(5).inverse(5)


def test_inverse_needs_window():
    small = LS.from_coeffs([1, -1], 0, 2)  # truncated, narrow window
    with pytest.raises(WindowError):
        small.inverse(10)
    exact = LS.polynomial([1, -1])  # the same coefficients, known zero past q^1
    inv = exact.inverse(10)
    assert (inv.min_exp, inv.trunc_order, inv.exact) == (0, 10, False)
    assert inv.coeff(9) == 1


def test_inverse_negative_valuation():
    # q^2 * unit: inverse carries exponent -2
    a = LS.from_coeffs([1, 1], min_exp=2, order=12)
    inv = a.inverse(6)
    assert inv.min_exp == -2
    prod = a.mul(inv)
    assert prod.eq_to(LS.one(prod.trunc_order), prod.trunc_order)


def test_shift_examples():
    s = LS.from_coeffs([1, 1], 0, 4).shift(2)
    assert s.coeff(2) == 1 and s.coeff(3) == 1 and s.min_exp == 2
    assert LS.monomial(1, 3, 5).shift(-3).coeff(0) == 1
    a = LS.from_coeffs([7, -2, 5], -1, 4)
    assert a.shift(5).shift(-5) == a


def test_pos_nonpos_parts():
    a = LS.from_coeffs([-1, 2, 3], -1, 2)  # 2 - q^-1 + 3q
    pos = a.pos_part()
    non = a.nonpos_part()
    assert pos.coeff(1) == 3 and pos.coeff(0) == 0 and pos.coeff(-1) == 0
    assert non.coeff(-1) == -1 and non.coeff(0) == 2 and non.coeff(1) == 0
    assert pos.add(non) == a

    assert LS.monomial(1, -2, 3).pos_part().is_zero()
    assert LS.monomial(1, 5, 8).nonpos_part().is_zero()


def test_eq_to():
    geo = geometric(50)
    inv = LS.from_coeffs([1, -1], 0, 50).inverse(50)
    assert inv.eq_to(geo, 50)
    a = LS.from_coeffs([1, 1], 0, 4)
    b = LS.from_coeffs([1, -1], 0, 4)
    assert not a.eq_to(b, 2)
    with pytest.raises(WindowError):
        a.eq_to(b, 5)


def test_eq_ignores_leading_zero_padding():
    a = LS.from_coeffs([0, 0, 5], -2, 3)
    b = LS.from_coeffs([5], 0, 3)
    assert a.eq_to(b, 3)


def test_coeff_out_of_window():
    a = LS.from_coeffs([1, 2], 0, 2)
    with pytest.raises(WindowError):
        a.coeff(2)
    assert a.coeff(-1) == 0  # below min_exp: a structural zero
    assert LS.zero(6).coeff(3) == 0


def _rand_series(rng, max_len=9):
    min_exp = rng.randint(-4, 3)
    length = rng.randint(0, max_len)
    coeffs = tuple(rng.randint(-5, 5) for _ in range(length))
    return LS(min_exp, coeffs, min_exp + length)


def test_ring_laws_random():
    rng = random.Random(20240811)
    for _ in range(500):
        a, b, c = (_rand_series(rng) for _ in range(3))
        assert a.add(b) == b.add(a)
        assert a.add(b).add(c) == a.add(b.add(c))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_pos_nonpos_decomposition_random():
    rng = random.Random(7)
    for _ in range(500):
        a = _rand_series(rng)
        assert a.pos_part().add(a.nonpos_part()) == a


def test_inverse_law_random():
    rng = random.Random(99)
    for _ in range(500):
        v = rng.randint(-3, 3)
        n = rng.randint(1, 10)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-4, 4) for _ in range(n + 4)]
        a = LS.from_coeffs(coeffs, min_exp=v)
        inv = a.inverse(n)
        prod = a.mul(inv)
        assert prod.eq_to(LS.one(prod.trunc_order), prod.trunc_order)


def test_window_soundness_recompute():
    rng = random.Random(5)
    for _ in range(200):
        # the same exact polynomials multiplied at two windows agree on the
        # smaller one
        a_coeffs = [rng.randint(-3, 3) for _ in range(6)]
        b_coeffs = [rng.randint(-3, 3) for _ in range(6)]
        small = LS.from_coeffs(a_coeffs, 0, 10).mul(LS.from_coeffs(b_coeffs, 0, 10))
        big = LS.from_coeffs(a_coeffs, 0, 25).mul(LS.from_coeffs(b_coeffs, 0, 25))
        assert big.eq_to(small, small.trunc_order)


def test_binomial_helpers_match_mul():
    rng = random.Random(12)
    for _ in range(200):
        a = _rand_series(rng)
        j = rng.randint(1, 4)
        c = rng.randint(-3, 3)
        binom = LS.from_coeffs([1] + [0] * (j - 1) + [-c], 0, a.trunc_order - a.min_exp + j + 1)
        via_mul = a.mul(binom).truncate(a.trunc_order)
        assert a.mul_binomial(c, j).eq_to(via_mul, via_mul.trunc_order)
        # divide then multiply restores the original on the window
        assert a.div_binomial(c, j).mul_binomial(c, j) == a
    # windows up to 300 wide with coefficients past 2**64, exponents up to
    # two past the window, and every c the multiply kernel branches on
    for c in (-2, -1, 0, 1, 2):
        for _ in range(8):
            a = _wide_series(rng, 300, 2**70)
            n = len(a.coeffs)
            for j in {1, n, n + 1, n + 2, *(rng.randint(1, n + 2) for _ in range(10))} - {0}:
                assert a.mul_binomial(c, j) == _ref_mul_binomial(a, c, j), (c, j)
                assert a.div_binomial(c, j) == _ref_div_binomial(a, c, j), (c, j)
                assert a.div_binomial(c, j).mul_binomial(c, j) == a, (c, j)


@pytest.mark.parametrize("c", [1, -1, 2, -3])
def test_div_binomial_list_passes_match_schoolbook(c):
    # c = 1 and c = -1 have passes of their own; every stride from 1 to the
    # length and past it, on coefficients past 2**64
    rng = random.Random(c)
    for length in (0, 1, 2, 7, 30):
        x = [rng.randint(-2**70, 2**70) for _ in range(length)]
        for j in range(1, length + 3):
            want = []
            for i, v in enumerate(x):
                want.append(v + (c * want[i - j] if i >= j else 0))
            got = list(x)
            series._div_binomial_list(got, c, j)
            assert got == want, (length, j)


# ----------------------------------------------------------------------
# the bulk kernels against schoolbook references written out here, at sizes
# the small random tests above never reach (Newton steps, wide slots)
# ----------------------------------------------------------------------


def _ref_coeff(a, e):
    return a.coeffs[e - a.min_exp] if e >= a.min_exp else 0


def _ref_add(a, b):
    lo = min(a.min_exp, b.min_exp)
    hi = min(a.trunc_order, b.trunc_order)
    lo = min(lo, hi)
    return LS(lo, tuple(_ref_coeff(a, e) + _ref_coeff(b, e) for e in range(lo, hi)), hi)


def _ref_mul(a, b):
    lo = a.min_exp + b.min_exp
    hi = min(a.trunc_order + b.min_exp, b.trunc_order + a.min_exp)
    n = hi - lo
    out = [0] * n
    for i, x in enumerate(a.coeffs[:n]):
        for j, y in enumerate(b.coeffs[: n - i]):
            out[i + j] += x * y
    return LS(lo, tuple(out), hi)


def _ref_inverse(u, order):
    # u[0] = +-1; the inverse's coefficients from the recurrence
    inv = [u[0]]
    for n in range(1, order):
        inv.append(-u[0] * sum(u[i] * inv[n - i] for i in range(1, n + 1)))
    return inv


def _ref_mul_binomial(a, c, j):
    x = a.coeffs
    return LS(a.min_exp, tuple(x[i] - (c * x[i - j] if i >= j else 0)
                               for i in range(len(x))), a.trunc_order)


def _ref_div_binomial(a, c, j):
    out = []
    for i, x in enumerate(a.coeffs):
        out.append(x + (c * out[i - j] if i >= j else 0))
    return LS(a.min_exp, tuple(out), a.trunc_order)


def _wide_series(rng, max_len, bound):
    min_exp = rng.randint(-5, 5)
    length = rng.randint(0, max_len)
    if rng.random() < 0.3:  # sparse, as the Pochhammer products are
        coeffs = tuple(rng.choice((0, 0, 0, rng.randint(-bound, bound))) for _ in range(length))
    else:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(length))
    return LS(min_exp, coeffs, min_exp + length)


def test_kernels_match_schoolbook_wide():
    rng = random.Random(20261018)
    for _ in range(40):
        bound = rng.choice((1, 10**3, 10**40))
        a = _wide_series(rng, 300, bound)
        b = _wide_series(rng, 300, rng.choice((1, 10**40)))
        assert a.mul(b) == _ref_mul(a, b)
        assert a.add(b) == _ref_add(a, b)
        assert a.sub(b) == _ref_add(a, LS(b.min_exp, tuple(-x for x in b.coeffs), b.trunc_order))
        c = rng.choice((1, -1, 2, -10**20))
        j = rng.randint(1, 40)
        assert a.mul_binomial(c, j) == _ref_mul_binomial(a, c, j)
        assert a.div_binomial(c, j) == _ref_div_binomial(a, c, j)
        assert a.scale(c).coeffs == tuple(c * x for x in a.coeffs)
        assert a.scale(1) is a  # values are frozen: no copy of the window
        # a padded with leading zeros, and then with its last coefficient off
        padded = LS(a.min_exp - 2, (0, 0) + a.coeffs, a.trunc_order)
        assert a.eq_to(padded, a.trunc_order) and padded.eq_to(a, a.trunc_order)
        if a.coeffs:
            off = LS(padded.min_exp, padded.coeffs[:-1] + (padded.coeffs[-1] + 1,), a.trunc_order)
            assert not a.eq_to(off, a.trunc_order)
            assert a.eq_to(off, a.trunc_order - 1)


@pytest.mark.parametrize("sign_a, sign_b", [(1, 1), (-1, -1), (1, -1)])
def test_mul_tight_slot(sign_a, sign_b):
    # every coefficient is +-M, so the middle product coefficient is exactly
    # min(len)*M^2: the largest a slot must hold.  2k + j is a multiple of 8,
    # so a slot one bit narrower is one byte narrower.
    for k, j in ((3, 2), (2, 4), (5, 6), (4, 8), (20, 8), (64, 8), (133, 6), (124, 8)):
        m, length = 2**k - 1, 2**j - 1
        for extra in (0, 5):
            a = LS(0, (sign_a * m,) * length, length)
            b = LS(0, (sign_b * m,) * (length + extra), length + extra)
            prod = a.mul(b)
            assert prod.coeff(length - 1) == sign_a * sign_b * length * m * m, (k, j)
            assert prod == _ref_mul(a, b), (k, j)


def _slot_bytes(a, b, n):
    # the slot size _kronecker picks, by the rule in its docstring
    a, b = a[:n], b[:n]
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    return (bits + min(len(a), len(b)).bit_length() + 8) // 8


# (slot bytes, k, j): +-(2^k - 1) on 2^j - 1 terms.  2k + j = 8s - 1 fills
# the s-byte slot; 2k + j = 8s - 8 fits it with one bit to spare, so a slot
# one bit narrower is one byte narrower.  Sizes 1-8 round up to a 1, 2, 4
# or 8-byte word; 9 is the first size on the byte path.
_SLOT_SHAPES = [
    (1, 2, 3), (2, 5, 5), (2, 3, 2), (3, 8, 7), (3, 6, 4), (4, 12, 7), (4, 10, 4),
    (5, 16, 7), (5, 14, 4), (6, 20, 7), (6, 18, 4), (7, 24, 7), (7, 22, 4),
    (8, 28, 7), (8, 26, 4), (9, 32, 7), (9, 30, 4),
]


@pytest.mark.parametrize("size, k, j", _SLOT_SHAPES)
def test_mul_word_slot_boundaries(size, k, j):
    m, length = 2**k - 1, 2**j - 1
    for sign_a in (1, -1):
        for sign_b in (1, -1):
            a = (sign_a * m,) * (length + 4)
            b = (sign_b * m,) * (length + 6)
            # n shorter than either operand: the slot sees length terms
            assert _slot_bytes(a, b, length) == size
            prod = _kronecker(a, b, length)
            assert prod[length - 1] == sign_a * sign_b * length * m * m
            ref = _ref_mul(LS(0, a, len(a)), LS(0, b, len(b)))
            assert prod == ref.coeffs[:length], (sign_a, sign_b)
            assert LS(0, a, len(a)).mul(LS(0, b, len(b))) == ref
    # mixed signs in one operand, and an all-zero operand
    mixed = tuple(m if i % 3 else -m for i in range(length + 4))
    b = (-m,) * (length + 6)
    assert _kronecker(mixed, b, length) == _ref_mul(LS(0, mixed, len(mixed)),
                                                    LS(0, b, len(b))).coeffs[:length]
    assert _kronecker((0,) * (length + 4), b, length) == (0,) * length


def _sparse_operands(size, nonzero, coeff, sign_b):
    # a sparse operand, whose nonzero terms are coeff, and a dense one of
    # sign sign_b whose magnitude makes the product slot ``size`` bytes:
    # bits(coeff) + bits(dense) + bits(24) + 8 = 8 * size + 7.  Both are longer
    # than n = 24, and the sparse one has a nonzero past n.
    n = 24
    dense = sign_b * (2 ** (8 * size - 6 - abs(coeff).bit_length()) - 1)
    sparse = [0] * (n + 4)
    for i in range(nonzero):  # spread from exponent 0 to n - 1
        sparse[(n - 1) * i // max(nonzero - 1, 1)] = coeff
    sparse[n + 2] = coeff
    return tuple(sparse), (dense,) * (n + 6), n


@pytest.mark.parametrize("size", range(1, 10))  # 1-8 are word slots, 9 a byte slot
def test_sparse_products_match_schoolbook(size):
    # an operand with fewer than one nonzero in _SPARSE_RATIO is added as
    # shifted copies; at the crossover and one nonzero either side of it
    crossover = 24 // series._SPARSE_RATIO
    coeffs = (1, -1) if size == 1 else (1, -1, 5, -5)  # +-1 and the general c
    for nonzero in (crossover - 1, crossover, crossover + 1):
        for coeff in coeffs:
            for sign_b in (1, -1):
                a, b, n = _sparse_operands(size, nonzero, coeff, sign_b)
                assert _slot_bytes(a, b, n) == size
                packs = []
                series._packed_product(a[:n], b[:n], lambda x: packs.append(x) or 1, 8)
                assert len(packs) == (1 if nonzero < crossover else 2), nonzero
                ref = _ref_mul(LS(0, a, len(a)), LS(0, b, len(b))).coeffs[:n]
                assert _kronecker(a, b, n) == ref, (nonzero, coeff, sign_b)
                assert _kronecker(b, a, n) == ref, (nonzero, coeff, sign_b)


@pytest.mark.parametrize("u0", [1, -1])
def test_inverse_newton_steps_cross_from_word_to_byte_slots(monkeypatch, u0):
    sizes = []
    kronecker = series._kronecker

    def recording(a, b, n):
        sizes.append(_slot_bytes(a, b, n))
        return kronecker(a, b, n)

    monkeypatch.setattr(series, "_kronecker", recording)
    coeffs = (u0, 2, -1, 3) + (0,) * 200
    inv = LS(0, coeffs, len(coeffs)).inverse(200)
    assert list(inv.coeffs) == _ref_inverse(coeffs, 200)
    assert min(sizes) <= 8 < max(sizes), sizes


def test_kernels_zero_and_disjoint_windows():
    zero = LS.zero(20)
    dense = LS(0, tuple(range(1, 21)), 20)
    assert zero.mul(dense) == LS(0, (0,) * 20, 20)
    assert dense.mul(LS(3, (), 3)) == LS(3, (), 3)
    assert dense.mul(LS(2, (0, 0, 0), 5)) == _ref_mul(dense, LS(2, (0, 0, 0), 5))
    # min_exp at or past the other operand's trunc_order
    far = LS(25, (7, -7, 1, 2, 3, 4, 5, 6), 33)
    for x, y in ((far, dense), (dense, far), (LS(20, (), 20), dense)):
        assert x.add(y) == _ref_add(x, y)
        assert x.sub(y) == _ref_add(x, y.neg())
        assert x.mul(y) == _ref_mul(x, y)
    assert not far.eq_to(dense, 20)
    assert far.eq_to(zero, 20) and zero.eq_to(far, 20)
    assert LS(5, (0, 0), 7).eq_to(LS(-3, (0,) * 10, 7), 7)


def test_binomial_helpers_past_the_window():
    a = LS(-2, (3, -1, 4, 1, -5), 3)
    for j in (5, 6, 40):
        assert a.mul_binomial(7, j) == a
        assert a.div_binomial(7, j) == a
    assert a.mul_binomial(7, 4) == _ref_mul_binomial(a, 7, 4)
    assert a.div_binomial(-7, 4) == _ref_div_binomial(a, -7, 4)
    empty = LS(4, (), 4)
    assert empty.mul_binomial(1, 1) == empty and empty.div_binomial(1, 1) == empty


@pytest.mark.parametrize("order", [31, 32, 33, 64, 65, 200])
@pytest.mark.parametrize("u0", [1, -1])
def test_inverse_across_newton_steps(order, u0):
    rng = random.Random(order * u0)
    # wide inputs make the inverse's coefficients grow about 40 digits a term
    for bound in (1, 10**40) if order <= 65 else (1,):
        v = rng.randint(-3, 3)
        coeffs = (u0,) + tuple(rng.randint(-bound, bound) for _ in range(order + 3))
        a = LS(v - 1, (0,) + coeffs, v + len(coeffs))
        inv = a.inverse(order)
        assert (inv.min_exp, inv.trunc_order) == (-v, -v + order)
        assert list(inv.coeffs) == _ref_inverse(coeffs, order)
    # an exact polynomial whose inverse coefficients grow
    euler = LS.from_coeffs([u0, -u0, -u0, 0, 0, u0, 0, u0], 0, order)
    inv = euler.inverse(order)
    assert list(inv.coeffs) == _ref_inverse(euler.coeffs, order)


# ----------------------------------------------------------------------
# exact polynomials: known zero past their support
# ----------------------------------------------------------------------


def test_exact_product_keeps_every_coefficient():
    q = Monomial.q()
    prod = poch_finite(q, 1, 3).mul(poch_finite(q, 1, 4))  # degree 6 + 10
    assert prod.exact and (prod.min_exp, prod.trunc_order) == (0, 17)
    assert prod.coeff(16) == -1 and prod.coeff(17) == 0 and prod.coeff(10**6) == 0
    assert str(LS.polynomial([1, -1]).mul(LS.polynomial([1, 1]))) == "1 - q^2"


def test_reading_past_the_support():
    exact = LS.polynomial([2, 0, -1], -1)
    truncated = LS(-1, (2, 0, -1), 2)
    for e in (-5, -2, 2, 3, 50):
        assert exact.coeff(e) == 0
    assert truncated.coeff(-2) == 0
    for e in (2, 3, 50):
        with pytest.raises(WindowError):
            truncated.coeff(e)
    assert [exact.coeff(e) for e in range(-1, 2)] == [truncated.coeff(e) for e in range(-1, 2)]
    assert str(truncated) == "2*q^-1 - q + O(q^2)" and str(exact) == "2*q^-1 - q"


def test_exact_times_truncated_window():
    # known below trunc.trunc_order + exact.min_exp, from both sides
    exact = LS.polynomial([1, 3, 0, 0, 0, 0, 5], -2)  # q^-2 (1 + 3q + 5q^6)
    trunc = LS(1, (1, 1, 1, 1), 5)  # q/(1 - q) + O(q^5)
    for prod in (exact.mul(trunc), trunc.mul(exact)):
        assert not prod.exact
        assert (prod.min_exp, prod.trunc_order) == (-1, 5 + -2)
        assert [prod.coeff(e) for e in range(-1, 3)] == [1, 4, 4, 4]
    # the exact operand, however long, never widens or narrows the window
    assert LS.polynomial([1] * 40).mul(trunc).trunc_order == 5
    assert LS.polynomial([7]).mul(trunc) == trunc.scale(7)


def test_exact_add_and_truncate_windows():
    a = LS.polynomial([1, 1], 2)  # q^2 + q^3
    b = LS.polynomial([4], -1)
    assert a.add(b) == LS.polynomial([4, 0, 0, 1, 1], -1)
    assert a.sub(a) == LS.polynomial([0, 0], 2)
    mixed = a.add(LS(0, (1, 1, 1), 3))
    assert mixed == LS(0, (1, 1, 2), 3)
    assert a.truncate(6) == LS(2, (1, 1, 0, 0), 6)
    assert a.truncate(3) == LS(2, (1,), 3)
    assert a.truncate(1) == LS(1, (), 1)
    assert b.truncate(0) == LS(-1, (4,), 0)
    assert a.eq_to(LS(0, (0, 0, 1, 1, 0), 5), 5) and a.eq_to(a.truncate(4), 4)
    assert LS.polynomial([1]).eq_to(LS.polynomial([1, 0, 0]), 100)
    with pytest.raises(WindowError):
        a.eq_to(LS(0, (0, 0, 1, 1), 4), 5)


def test_extend_no_longer_pads():
    trunc = LS(0, (1, -1), 2)
    assert trunc.extend(2) is trunc and trunc.extend(1) is trunc
    with pytest.raises(WindowError):
        trunc.extend(3)
    exact = LS.polynomial([1, -1])
    assert exact.extend(3) is exact and exact.extend(10**6) is exact


def test_exact_and_truncated_values_differ():
    exact = LS.polynomial([1, 2])
    trunc = LS(0, (1, 2), 2)
    assert exact.coeffs == trunc.coeffs and exact.trunc_order == trunc.trunc_order
    assert exact != trunc and hash(exact) != hash(trunc)
    assert len({exact, trunc}) == 2
    assert exact == LS(0, (1, 2), 2, True) and hash(exact) == hash(LS(0, (1, 2), 2, True))


def test_binomial_helpers_return_truncated_values():
    exact = LS.polynomial([1, 2, 3])
    for out in (exact.mul_binomial(1, 1), exact.div_binomial(1, 1)):
        assert not out.exact and (out.min_exp, out.trunc_order) == (0, 3)
    assert exact.mul_binomial(1, 1).coeffs == (1, 1, 1)


def _ref_exact_mul(a, b):
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return LS.polynomial(out, a.min_exp + b.min_exp)


def _ref_exact_add(a, b):
    lo = min(a.min_exp, b.min_exp)
    hi = max(a.trunc_order, b.trunc_order)
    return LS.polynomial([a.coeff(e) + b.coeff(e) for e in range(lo, hi)], lo)


def _exact(rng, max_len, bound):
    a = _wide_series(rng, max_len, bound)
    return LS.polynomial(a.coeffs, a.min_exp)


def test_exact_ring_ops_match_term_by_term():
    rng = random.Random(20261019)
    for _ in range(300):
        bound = rng.choice((1, 9, 10**30))
        a, b = _exact(rng, 40, bound), _exact(rng, 40, bound)
        assert a.mul(b) == _ref_exact_mul(a, b)
        assert a.add(b) == _ref_exact_add(a, b)
        assert a.sub(b) == _ref_exact_add(a, b.neg())
        assert a.neg() == LS.polynomial([-x for x in a.coeffs], a.min_exp)
        k = rng.randint(-5, 5)
        assert a.shift(k) == LS.polynomial(a.coeffs, a.min_exp + k)
        assert a.pos_part().add(a.nonpos_part()) == a
        for e in range(a.min_exp - 3, a.trunc_order + 3):
            assert a.pos_part().coeff(e) == (a.coeff(e) if e >= 1 else 0)
        # an exact factor against a truncated one: the truncated reference
        # product of the exact operand written out on a wide enough window
        t = _wide_series(rng, 40, bound)
        hi = max(a.trunc_order + len(t.coeffs), t.trunc_order)
        wide = LS(a.min_exp, tuple(a.coeff(e) for e in range(a.min_exp, hi)), hi)
        assert a.mul(t) == t.mul(a) == _ref_mul(wide, t)
        assert a.add(t) == t.add(a) == _ref_add(wide, t)
        order = rng.randint(a.min_exp - 3, a.trunc_order + 3)
        cut = a.truncate(order)
        lo = min(a.min_exp, order)
        assert cut == LS(lo, tuple(a.coeff(e) for e in range(lo, order)), order)
