"""Closed-form generating functions and p(n)-combination formulas.

Each builder assembles one closed form from the q-series primitives and
returns a truncated series; the enumeration module supplies the independent
counts the identities harness compares them against.  All k/t summations
truncate once the summand's lowest exponent leaves the window, which is
sound because those exponents increase monotonically in the summation
index.  :func:`gf_a_m_sum` evaluates its k-sum from the inside out
(Horner form) on one coefficient list: each term costs one sparse add,
read from a table of subsets built once per call, and one call of the
binomial divide kernel of :mod:`qpartitions.series`, with no dense
multiply, and one series value is built at the end.
:func:`gf_a_m_diff` builds every factor, its Gaussian binomials included,
on the window that its result reads, never the exact polynomials.
"""

from __future__ import annotations

from functools import lru_cache

from .enumeration import count_p, count_p_star, count_Q
from .qobjects import (
    Monomial,
    _qbin_window,
    euler_qinf,
    multi_poch_infinite,
    poch_finite_window,
    poch_infinite,
)
from .series import LaurentSeries, _div_binomial_list

_Q = Monomial.q()


# ----------------------------------------------------------------------
# linear combinations of shifted p(n)
# ----------------------------------------------------------------------


def _check_n(n: int) -> None:
    # below n = 1 the p combinations no longer count a_m(n), which is 0 there
    if n < 1:
        raise ValueError("requires n >= 1")


def a2_via_p(n: int) -> int:
    """Smallest part at least twice: 2p(n) - p(n+1), n >= 1."""
    _check_n(n)
    return 2 * count_p(n) - count_p(n + 1)


def a3_via_p(n: int) -> int:
    """Smallest part at least three times: 3p(n) - p(n+1) - 2p(n+2) + p(n+3), n >= 1."""
    _check_n(n)
    return 3 * count_p(n) - count_p(n + 1) - 2 * count_p(n + 2) + count_p(n + 3)


def a4_via_p(n: int) -> int:
    """Smallest part at least four times, as a seven-term p combination, n >= 1."""
    _check_n(n)
    return (
        4 * count_p(n)
        - count_p(n + 1)
        - 2 * count_p(n + 2)
        - 2 * count_p(n + 3)
        + count_p(n + 4)
        + 2 * count_p(n + 5)
        - count_p(n + 6)
    )


def aG1_via_p(m: int, n: int) -> int:
    """General smallest-multiplicity count via p values and Q corrections.

    2p(n) - p(n+1) - p(n-2) + p(n-m) minus the double sum of Q(l, k, n)
    over 2 <= l <= m-1, 3 <= k <= floor(n/l) + 1, with the at_least /
    empty-counts-one convention for Q.  At m = 2 the p(n-2) terms cancel
    and the Q sum is empty, recovering a2_via_p.
    """
    if m < 2 or n < 1:
        raise ValueError("requires m >= 2 and n >= 1")
    total = 2 * count_p(n) - count_p(n + 1) - count_p(n - 2) + count_p(n - m)
    for l in range(2, m):
        for k in range(3, n // l + 2):
            total -= count_Q(l, k, n, "at_least")
    return total


# ----------------------------------------------------------------------
# generating function of the smallest-multiplicity counts
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def bracket_polynomial(m: int) -> LaurentSeries:
    """The exact Laurent polynomial multiplying 1/(q;q)_inf, for m >= 2.

    It equals 1 + sum_{k=1}^{m-1} (-1)^k prod_{i=0}^{k-1} (q^{-(m-1-i)} - 1),
    with exponents in [-m(m-1)/2, 0].  Term k is term k - 1 times the exact
    (q^-(m-k) - 1), and the terms are summed with alternating signs.
    """
    if m < 2:
        raise ValueError("requires m >= 2")
    total = term = LaurentSeries.polynomial((1,))
    for k in range(1, m):
        term = term.mul(LaurentSeries.polynomial((1,) + (0,) * (m - k - 1) + (-1,), k - m))
        total = total.sub(term) if k % 2 else total.add(term)
    return total


@lru_cache(maxsize=None)
def gf_a_m_sum(m: int, order: int) -> LaurentSeries:
    """Summation form: sum_k q^(k+m)/(q)_{k+m} * prod_{i=1}^{m-1}(1-q^(k+i)).

    The k-sum is evaluated from the inside out.  With P_k the product
    prod_{i=1}^{m-1}(1-q^(k+i)), the sum times (q)_m is
    q^m P_0 + [q^(m+1) P_1 + [q^(m+2) P_2 + ...]/(1-q^(m+2))]/(1-q^(m+1)).
    One coefficient list holds the bracket that starts at exponent k+m, on
    [k+m, order): each step puts one 0 in front of it (the factor q), adds
    the sparse P_k and divides once by (1 - q^(k+m)).  P_k is the sum over
    the subsets S of {1..m-1} of (-1)^|S| q^(|S| k + sum S), so one table,
    built once, that maps (|S|, sum S) to (-1)^|S| times the number of such
    S gives every P_k; its terms past the live window are dropped.  The
    division of the innermost bracket by (q)_m comes last.  Every step is
    causal, so the cut to the window is exact; one series value is built at
    the end.
    """
    if m < 1 or order < 1:
        raise ValueError("requires m >= 1 and order >= 1")
    subsets = {(0, 0): 1}  # (|S|, sum S) -> (-1)^|S| times the number of such S
    for i in range(1, m):
        for (size, total), c in list(subsets.items()):
            subsets[size + 1, total + i] = subsets.get((size + 1, total + i), 0) - c
    acc: list[int] = []  # the bracket starting at q^(k+m), on [k+m, order)
    for k in range(order - m - 1, -1, -1):
        acc.insert(0, 0)
        live = len(acc)
        for (size, total), c in subsets.items():
            x = size * k + total
            if x < live:
                acc[x] += c
        if k:
            _div_binomial_list(acc, 1, k + m)
    for i in range(1, m + 1):
        _div_binomial_list(acc, 1, i)
    return LaurentSeries(0, (0,) * min(m, order) + tuple(acc), order)


@lru_cache(maxsize=None)
def _full_bracket_quotient(m: int, order: int) -> LaurentSeries:
    # bracket / (q;q)_inf on the window [-m(m-1)/2, order)
    if m < 2 or order < 1:
        raise ValueError("requires m >= 2 and order >= 1")
    depth = m * (m - 1) // 2
    qinv = euler_qinf(order + depth).inverse(order + depth)
    return bracket_polynomial(m).mul(qinv)


def gf_a_m_thm(m: int, order: int) -> LaurentSeries:
    """Closed form: the positive part of bracket_polynomial(m)/(q;q)_inf.

    The subtracted correction (see :func:`gf_a_m_thm_correction`) is the
    non-positive part of the same product, which is the reading under which
    the m = 2 case collapses to ``2p(n) - p(n+1)``.
    """
    return _full_bracket_quotient(m, order).pos_part()


def gf_a_m_thm_correction(m: int, order: int) -> LaurentSeries:
    """The non-positive-exponent correction subtracted in gf_a_m_thm."""
    return _full_bracket_quotient(m, order).nonpos_part()


# ----------------------------------------------------------------------
# generating function with a fixed largest-smallest difference
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def gf_a_m_diff(m: int, l: int, order: int) -> LaurentSeries:
    """Closed form for counts with smallest multiplicity >= m and difference l.

    q^(l+m+1) (q)_m (q)_{l-m-1} / ((q)_l)^2 * (-1)^(m+1) q^(-(m+1)(m+2)/2)
    * ((q)_l - sum_{j=0}^{m} qbin(l,j) (-1)^j q^(j+j(j-1)/2)).

    The (q)_{l-m-1} factor is what the telescoped j-sum actually produces;
    the bracket's valuation (m+1)(m+2)/2 cancels the negative power, so the
    lowest surviving exponent is l+m+1, the smallest witness m*1 + (1+l).
    So the result reads the product of the factors on [0, order + (m+1)(m+2)/2),
    and every factor is built on that window only: the Pochhammer products
    drop their factors past it, and each qbin(l, j) is stepped by its
    product form on the window its shifted term reads.
    """
    if m < 1:
        raise ValueError("requires m >= 1")
    if l < 2:
        raise ValueError("requires difference l > 1")
    if l < m + 1:
        raise ValueError(
            f"closed form needs l >= m+1 (got m={m}, l={l}); "
            "use the enumeration counters for narrower differences"
        )
    if order < 1:
        raise ValueError("order must be at least 1")
    depth = (m + 1) * (m + 2) // 2
    work = order + depth
    lead = l + m + 1
    poch_l = poch_finite_window(_Q, 1, l, work)
    bracket = poch_l
    for j in range(m + 1):
        s = j + j * (j - 1) // 2
        term = _qbin_window(l, j, work - s).shift(s)
        bracket = bracket.add(term) if j % 2 else bracket.sub(term)
    num = poch_finite_window(_Q, 1, m, work).mul(poch_finite_window(_Q, 1, l - m - 1, work))
    den_inv = poch_l.mul(poch_l).inverse(work)
    series = num.mul(bracket).mul(den_inv)
    sign = 1 if m % 2 else -1  # (-1)^(m+1)
    return series.truncate(work - lead).scale(sign).shift(lead - depth)


# ----------------------------------------------------------------------
# overpartitions
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def gf_pbar(order: int) -> LaurentSeries:
    """Overpartition generating function prod (1+q^n)/(1-q^n)."""
    neg = poch_infinite(Monomial(-1, 1), 1, order)
    return neg.mul(euler_qinf(order).inverse(order))


def _abar_sum(m: int, j: int, order: int) -> LaurentSeries:
    # sum_{k>=1} q^(mk) (-q^(k+j))_inf / (q^k)_inf.  Both smallest-multiplicity
    # forms are this sum: (-q^k)_inf / (1+q^k) = (-q^(k+1))_inf.
    if m < 1 or order < 1:
        raise ValueError("requires m >= 1 and order >= 1")
    acc = LaurentSeries.zero(order)
    k = 1
    while m * k < order:
        term = poch_infinite(Monomial(-1, k + j), 1, order)
        term = term.mul(poch_infinite(Monomial(1, k), 1, order).inverse(order))
        acc = acc.add(term.shift(m * k).truncate(order))
        k += 1
    return acc


@lru_cache(maxsize=None)
def gf_abar_m(m: int, order: int) -> LaurentSeries:
    """Overpartition smallest-multiplicity GF:
    sum_k 2 q^(mk) (-q^k)_inf / ((1+q^k)(q^k)_inf)."""
    return _abar_sum(m, 1, order).scale(2)


@lru_cache(maxsize=None)
def gf_abar_m_alt(m: int, order: int) -> LaurentSeries:
    """Variant GF sum_k q^(mk) (-q^k)_inf / (q^k)_inf, for the convention
    where an overlined part is never equal to a plain one."""
    return _abar_sum(m, 0, order)


@lru_cache(maxsize=None)
def gf_ubar(order: int) -> LaurentSeries:
    """Double-sum GF for the u-bar overpartition counts:

    2 sum_{k>=1} ( q^(2k+1)/(1-q^(k+1))
                   + sum_{t>=2} q^(3k+2t-1) (1+q) (-q^(k+1);q)_{t-2}
                                 / (q^(k+1);q)_t ).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    acc = LaurentSeries.zero(order)
    k = 1
    while 2 * k + 1 < order:
        piece = LaurentSeries.one(order).div_binomial(1, k + 1)
        acc = acc.add(piece.shift(2 * k + 1).truncate(order))
        t = 2
        while 3 * k + 2 * t - 1 < order:
            num = poch_finite_window(Monomial(-1, k + 1), 1, t - 2, order)
            den = poch_finite_window(Monomial(1, k + 1), 1, t, order)
            piece = num.mul(den.inverse(order)).mul_binomial(-1, 1)
            acc = acc.add(piece.shift(3 * k + 2 * t - 1).truncate(order))
            t += 1
        k += 1
    return acc.scale(2)


# ----------------------------------------------------------------------
# l-regular partitions
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def gf_breg(l: int, order: int) -> LaurentSeries:
    """l-regular partition GF (q^l; q^l)_inf / (q; q)_inf."""
    if l < 2:
        raise ValueError("regularity modulus must be at least 2")
    num = poch_infinite(Monomial(1, l), l, order)
    return num.mul(euler_qinf(order).inverse(order))


@lru_cache(maxsize=None)
def gf_areg(m: int, l: int, order: int) -> LaurentSeries:
    """l-regular smallest-multiplicity GF:

    sum_{k>=0} sum_{t=1}^{l-1} q^((lk+t)m) (q^(lk+1); q)_{t-1}
        / (q^(lk+1), ..., q^(lk+l-1); q^l)_inf.
    """
    if m < 1 or l < 2 or order < 1:
        raise ValueError("requires m >= 1, l >= 2, order >= 1")
    acc = LaurentSeries.zero(order)
    k = 0
    while (l * k + 1) * m < order:
        params = [Monomial(1, l * k + r) for r in range(1, l)]
        den_inv = multi_poch_infinite(params, l, order).inverse(order)
        for t in range(1, l):
            shift = (l * k + t) * m
            if shift >= order:
                break
            num = poch_finite_window(Monomial(1, l * k + 1), 1, t - 1, order)
            acc = acc.add(num.mul(den_inv).shift(shift).truncate(order))
        k += 1
    return acc


@lru_cache(maxsize=None)
def gf_areg_l2(m: int, order: int) -> LaurentSeries:
    """The l = 2 case in collapsed form:
    q^m/(q; q^2)_inf * sum_{k>=0} (q; q^2)_k q^(2km)."""
    if m < 1 or order < 1:
        raise ValueError("requires m >= 1 and order >= 1")
    pref = poch_infinite(Monomial(1, 1), 2, order).inverse(order)
    total = LaurentSeries.zero(order)
    pk = LaurentSeries.one(order)
    k = 0
    while 2 * k * m + m < order:
        total = total.add(pk.shift(2 * k * m).truncate(order))
        pk = pk.mul_binomial(1, 2 * k + 1)
        k += 1
    return pref.mul(total).shift(m).truncate(order)


# ----------------------------------------------------------------------
# fixed-difference decomposition via minimum-part counts
# ----------------------------------------------------------------------


def remark7_rhs(n: int) -> int:
    """1 + p(n-2) + sum_{m=2}^{floor(n/3)} p*_m(n-2m), as displayed.

    Holds against the fixed-difference count p(2n, n) only for even n >= 4:
    the leading 1 stands for the empty-middle partition (3n/2, n/2), which
    exists only when n is even (and duplicates the p(n-2) term at n = 2).
    The harness reports the mismatch rather than repairing the formula.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 1 + count_p(n - 2)
    for m in range(2, n // 3 + 1):
        total += count_p_star(m, n - 2 * m)
    return total
