"""q-series building blocks: Pochhammer products, Gaussian binomials.

Pochhammer parameters are restricted to integer monomials c*q**e.  Every
generating function assembled downstream factors through these few
primitives, all of which return :class:`~qpartitions.series.LaurentSeries`
values with exact integer coefficients.  Each q-object has one loop, on
one coefficient list with the shared binomial list kernels of
:mod:`qpartitions.series`, and builds a single series value at the end:
:func:`poch_finite_window` for the finite Pochhammer products,
``_qbin_window`` for the Gaussian binomials and ``_q_hyper_halves`` for
the q-hypergeometric sums.  The window builders check every argument.  The
exact values ``poch_finite`` and ``qbin`` (zero for b out of range) are
their window builds on [0, degree + 1); the other builders return values
truncated at their ``order``.

A q-hypergeometric sum's k-th term depends on t = c*q**e only through
c**k q**(ke), so ``_q_hyper_halves`` runs the term recurrence once for |c|
and keeps the even-k and odd-k terms apart; the sums for t and -t are
their sum and difference, and the halves are memoized so that the second
sign costs one pass over the window.

``poch_infinite`` builds a unit parameter's product (c = +-1) from its
logarithmic derivative, q P'/P = sum_k L_k q^k, a recurrence for P solved
by halves with one Kronecker product per split (``_from_log_derivative``),
which costs O(M(order) log order) against the factor loop's
O(order^2/step).  For |c| >= 2 the L_k grow like |c|^(k/e), so any other
parameter keeps the finite loop with ``order`` factors.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .record import FrozenRecord
from .series import (
    LaurentSeries,
    NonInvertibleError,
    SeriesError,
    WindowError,
    _div_binomial_list,
    _kronecker,
    _mul_binomial_list,
)


class PochhammerError(SeriesError):
    """An infinite product whose factors never leave the window."""


class Monomial(FrozenRecord):
    """An integer monomial c*q**e used as a Pochhammer parameter."""

    __match_args__ = ("coeff", "exp")

    def __init__(self, coeff: int, exp: int = 0) -> None:
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exp", exp)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.coeff, self.exp) == (other.coeff, other.exp)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeff, self.exp))

    def __post_init__(self) -> None:
        if self.exp < 0:
            raise ValueError("monomial exponent must be non-negative")
        if self.coeff == 0 and self.exp != 0:
            raise ValueError("the zero monomial is written with exp 0")

    @classmethod
    def zero(cls) -> "Monomial":
        return cls(0, 0)

    @classmethod
    def q(cls, exp: int = 1, coeff: int = 1) -> "Monomial":
        return cls(coeff, exp)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def times(self, other: "Monomial") -> "Monomial":
        if self.is_zero() or other.is_zero():
            return Monomial.zero()
        return Monomial(self.coeff * other.coeff, self.exp + other.exp)

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative monomial powers are not supported")
        if self.is_zero():
            return Monomial.zero() if k else Monomial(1, 0)
        return Monomial(self.coeff**k, self.exp * k)

    def over(self, other: "Monomial") -> "Monomial":
        """Exact monomial quotient; raises when it leaves the monomials."""
        if self.is_zero():
            return Monomial.zero()
        if other.is_zero():
            raise ZeroDivisionError("division by the zero monomial")
        if self.exp < other.exp or self.coeff % other.coeff != 0:
            raise ValueError(f"{self} is not a monomial multiple of {other}")
        return Monomial(self.coeff // other.coeff, self.exp - other.exp)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if self.exp == 0:
            return str(self.coeff)
        head = {1: "", -1: "-"}.get(self.coeff, f"{self.coeff}*")
        return f"{head}q" if self.exp == 1 else f"{head}q^{self.exp}"


def poch_finite(a: Monomial, step: int, n: int) -> LaurentSeries:
    """The exact polynomial prod_{i=0}^{n-1} (1 - a*q^(step*i)).

    The empty product (n == 0) is 1.  The result is
    :func:`poch_finite_window` on [0, degree + 1), stored as an exact value.
    """
    degree = 0 if a.is_zero() else n * a.exp + step * n * (n - 1) // 2
    return LaurentSeries.polynomial(poch_finite_window(a, step, n, degree + 1).coeffs)


def poch_finite_window(a: Monomial, step: int, n: int, order: int) -> LaurentSeries:
    """Finite Pochhammer truncated to the window [0, order).

    Same product as :func:`poch_finite`, but factors beyond the window are
    dropped early; useful when the full degree would dwarf the window.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if n < 0:
        raise ValueError("finite product length must be non-negative")
    if order < 1:
        raise WindowError("order must be at least 1")
    if a.is_zero():
        return LaurentSeries.one(order)
    out = [1] + [0] * (order - 1)
    for i in range(n):
        e = a.exp + step * i
        if e >= order:
            break
        if e == 0:
            # the first factor is the constant (1 - c), as in (1; q)_n
            # which vanishes; it multiplies the initial 1
            out[0] = 1 - a.coeff
        else:
            _mul_binomial_list(out, a.coeff, e)
    return LaurentSeries(0, tuple(out), order)


@lru_cache(maxsize=None)
def poch_infinite(a: Monomial, step: int, order: int) -> LaurentSeries:
    """The infinite product (a; q^step)_inf truncated at ``order``.

    Requires a.exp >= 1 for nonzero ``a``: otherwise every factor moves the
    constant term and no truncation is sound.  For a unit parameter
    a = c*q^e (c = +-1), q P'/P = sum_k L_k q^k with L_k = -sum e'*c^(k/e')
    over the factors' exponents e' that divide k, so P comes from
    k P_k = sum_{j<k} L_(k-j) P_j (:func:`_from_log_derivative`).  Any
    other parameter is the factor loop :func:`poch_finite_window` with
    ``order`` factors: for |c| >= 2 the L_k grow like |c|^(k/e'), and the
    recurrence is slower than the loop.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if order < 1:
        raise WindowError("order must be at least 1")
    if a.exp < 1 and not a.is_zero():
        raise PochhammerError(
            f"infinite product with parameter {a}: factors never truncate"
        )
    c = a.coeff
    if c not in (1, -1):
        return poch_finite_window(a, step, order, order)
    logd = [0] * order  # L_k: -e*c^(k/e) from each factor exponent e dividing k
    for e in range(a.exp, order, step):
        t = -e
        for k in range(e, order, e):
            t *= c
            logd[k] += t
    return LaurentSeries(0, tuple(_from_log_derivative(logd)), order)


# Blocks of at most this many coefficients are solved by the plain recurrence.
_PLAIN_BLOCK = 48


def _from_log_derivative(logd: list[int]) -> list[int]:
    # The coefficients P_0 .. P_(n-1), n = len(logd), of the series with
    # P_0 = 1 and q P'/P = sum_k logd[k] q^k: k P_k = sum_{j<k} logd[k-j] P_j.
    # Solved by halves: once P[lo:mid] is known, its terms of the sums for
    # k in [mid, hi) are added to acc by one Kronecker product, so the upper
    # half is solved from acc and its own terms alone.  Each k P_k is
    # divided exactly; a remainder means a wrong logd or a bug, and raises
    # ArithmeticError, which no caller reports as a bad argument.
    n = len(logd)
    P = [1] + [0] * (n - 1)
    acc = [0] * n

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _PLAIN_BLOCK:
            for k in range(max(lo, 1), hi):
                s = acc[k] + sum(map(operator.mul, P[lo:k], logd[k - lo : 0 : -1]))
                quo, r = divmod(s, k)
                if r:
                    raise ArithmeticError(f"{k} P_{k} = {s} is not a multiple of {k}")
                P[k] = quo
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        prod = _kronecker(P[lo:mid], logd[1 : hi - lo], hi - lo - 1)
        acc[mid:hi] = map(operator.add, acc[mid:hi], prod[mid - lo - 1 :])
        solve(mid, hi)

    solve(0, n)
    return P


def multi_poch_infinite(params, step: int, order: int) -> LaurentSeries:
    """Product of infinite Pochhammers over a list of monomial parameters."""
    out = poch_infinite(Monomial.zero(), step, order)
    for a in params:
        out = out.mul(poch_infinite(a, step, order))
    return out


def euler_qinf(order: int) -> LaurentSeries:
    """(q; q)_inf via the pentagonal-number expansion.

    sum_j (-1)^j q^(j(3j-1)/2) over all integers j, truncated at ``order``.
    Faster than ``poch_infinite(q, 1, order)``'s log-derivative recurrence
    and independent of it; the test suite checks the two against each other.
    """
    if order < 1:
        raise WindowError("order must be at least 1")
    coeffs = [0] * order
    j = 0
    while True:
        e = j * (3 * j - 1) // 2
        e2 = j * (3 * j + 1) // 2
        if e >= order and e2 >= order:
            break
        sign = 1 if j % 2 == 0 else -1
        if e < order:
            coeffs[e] += sign
        if j and e2 < order:
            coeffs[e2] += sign
        j += 1
    return LaurentSeries(0, tuple(coeffs), order)


_EXP_COEFF = operator.attrgetter("exp", "coeff")


def q_hyper_sum(uppers, lowers, t: Monomial, order: int) -> LaurentSeries:
    """sum_{k>=0} prod_i (u_i)_k * t^k / ((q)_k * prod_j (l_j)_k), truncated.

    All parameters are integer monomials; zero parameters contribute the
    constant Pochhammer 1.  The sum stops once t^k leaves the window, so a
    nonzero ``t`` must have positive exponent.  The parameters are checked
    in the caller's order, then normalized (zero monomials dropped, uppers
    and lowers each sorted by exponent and coefficient, which leaves the
    symmetric product unchanged) and the sum is built once per normalized
    argument tuple by :func:`_q_hyper_sum`; errors are raised on every
    call, never cached.  The sum's even-k and odd-k terms are memoized
    apart, per |t.coeff| (:func:`_q_hyper_halves`), so t and -t share one
    term recurrence.
    """
    if order < 1:
        raise WindowError("order must be at least 1")
    if t.is_zero():
        return _q_hyper_sum((), (), t, order)
    if t.exp < 1:
        raise PochhammerError(f"series in powers of {t} does not truncate")
    uppers = [u for u in uppers if not u.is_zero()]
    lowers = [l for l in lowers if not l.is_zero()]
    if t.exp < order:  # term 1 is in the window: each (l)_1 must be a unit
        for l in lowers:
            if l.exp == 0 and l.coeff != 2:
                raise NonInvertibleError(
                    f"lower parameter {l} produces a non-unit constant factor"
                )
    uppers.sort(key=_EXP_COEFF)
    lowers.sort(key=_EXP_COEFF)
    return _q_hyper_sum(tuple(uppers), tuple(lowers), t, order)


@lru_cache(maxsize=None)
def _q_hyper_sum(uppers, lowers, t: Monomial, order: int) -> LaurentSeries:
    # q_hyper_sum on checked, normalized parameters: the even-k terms plus
    # or minus the odd-k ones, as t's coefficient is positive or negative.
    if t.is_zero():
        return LaurentSeries.one(order)
    even, odd = _q_hyper_halves(uppers, lowers, abs(t.coeff), t.exp, order)
    op = operator.add if t.coeff > 0 else operator.sub
    return LaurentSeries(0, tuple(map(op, even, odd)), order)


@lru_cache(maxsize=None)
def _q_hyper_halves(uppers, lowers, c: int, e: int, order: int):
    # The sum for t = c*q^e, c >= 1, split into its even-k and odd-k terms.
    # Term k depends on t only through c^k q^(ke), so the sum for -t is the
    # even part minus the odd part, and t and -t share one recurrence.  It
    # runs on one coefficient list with the shared binomial list kernels.
    # Term k is added at exponent k*e, so before step k it is cut to its
    # order - k*e live coefficients; every update is causal, so the cut is
    # exact.
    even = [1] + [0] * (order - 1)
    odd = [0] * order
    term = even[:]
    k, off = 1, e
    while off < order:
        live = order - off  # a binomial (1 - c*q^j) with j >= live acts as 1
        del term[live:]
        scale = c
        for u in uppers:
            ue = u.exp + k - 1
            if ue == 0:
                scale *= 1 - u.coeff
            elif ue < live:
                _mul_binomial_list(term, u.coeff, ue)
        if k < live:
            _div_binomial_list(term, 1, k)
        for l in lowers:
            le = l.exp + k - 1
            if le == 0:  # (1 - 2), the one unit constant q_hyper_sum lets through
                scale = -scale
            elif le < live:
                _div_binomial_list(term, l.coeff, le)
        if scale == 0:  # an upper (1; q)_k: this term and every later one vanish
            break
        if scale != 1:
            term = [scale * x for x in term]
        half = odd if k & 1 else even
        half[off:] = map(operator.add, half[off:], term)
        k += 1
        off += e
    return tuple(even), tuple(odd)


@lru_cache(maxsize=None)
def qbin(a: int, b: int) -> LaurentSeries:
    """The Gaussian binomial coefficient as an exact polynomial.

    ``_qbin_window`` on [0, degree + 1), the degree being k(a - k) with
    k = min(b, a - b); returns 0 for b < 0 or b > a.  Memoized like
    :func:`poch_infinite`: values are frozen, so callers share one.
    """
    k = min(b, a - b)
    return LaurentSeries.polynomial(_qbin_window(a, b, max(k * (a - k), 0) + 1).coeffs)


def _qbin_window(a: int, b: int, order: int) -> LaurentSeries:
    # qbin(a, b) on the window [0, order), stepped from 1 by the product
    # form prod_{j=1}^{k} (1 - q^(a-j+1)) / (1 - q^j), k = min(b, a - b), on
    # one coefficient list that stops past the degree k(a - k) or the window.
    if a < 0:
        raise ValueError("upper index must be non-negative")
    if b < 0 or b > a:
        return LaurentSeries.zero(order)
    k = min(b, a - b)
    out = [1] + [0] * (min(order, k * (a - k) + 1) - 1)
    for j in range(1, k + 1):
        _mul_binomial_list(out, 1, a - j + 1)
        _div_binomial_list(out, 1, j)
    return LaurentSeries.from_coeffs(out, 0, order)


def qbinomial_theorem_lhs_rhs(n: int, z: Monomial, order: int):
    """Both sides of the finite q-binomial expansion of (z)_n.

    Returns ``(product_side, sum_side)`` on the window [0, order); the
    caller compares them.  ``order`` must cover both polynomials exactly.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    degree = 0 if z.is_zero() else n * z.exp + n * (n - 1) // 2
    if order <= degree:
        raise WindowError(
            f"order {order} cannot hold the degree-{degree} polynomials exactly"
        )
    lhs = poch_finite(z, 1, n).truncate(order)
    rhs = LaurentSeries.zero(order)
    for j in range(n + 1):
        zj = z.power(j)  # zero only for j >= 1 with z = 0
        if zj.is_zero():
            continue
        sign = -1 if j % 2 else 1
        term = qbin(n, j).shift(zj.exp + j * (j - 1) // 2)
        rhs = rhs.add(term.scale(sign * zj.coeff))
    return lhs, rhs
