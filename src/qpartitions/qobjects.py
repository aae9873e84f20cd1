"""q-series building blocks: Pochhammer products, Gaussian binomials.

Pochhammer parameters are restricted to integer monomials c*q**e.  Every
generating function assembled downstream factors through these few
primitives, all of which return :class:`~qpartitions.series.LaurentSeries`
values with exact integer coefficients.  The Pochhammer products and
``q_hyper_sum`` run on one coefficient list with the shared binomial list
kernels of :mod:`qpartitions.series` and build a single series value at
the end.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .series import (
    LaurentSeries,
    NonInvertibleError,
    SeriesError,
    WindowError,
    _div_binomial_list,
    _mul_binomial_list,
)


class PochhammerError(SeriesError):
    """An infinite product whose factors never leave the window."""


@dataclass(frozen=True)
class Monomial:
    """An integer monomial c*q**e used as a Pochhammer parameter."""

    coeff: int
    exp: int = 0

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

    The empty product (n == 0) is 1.  The result window is degree + 1, i.e.
    the polynomial is stored exactly.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if n < 0:
        raise ValueError("finite product length must be non-negative")
    if a.is_zero() or n == 0:
        return LaurentSeries.one(1)
    degree = n * a.exp + step * n * (n - 1) // 2
    out = poch_finite_window(a, step, n, degree + 1)
    return out


def poch_finite_window(a: Monomial, step: int, n: int, order: int) -> LaurentSeries:
    """Finite Pochhammer truncated to the window [0, order).

    Same product as :func:`poch_finite`, but factors beyond the window are
    dropped early; useful when the full degree would dwarf the window.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
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
    constant term and no truncation is sound.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if order < 1:
        raise WindowError("order must be at least 1")
    if a.is_zero():
        return LaurentSeries.one(order)
    if a.exp < 1:
        raise PochhammerError(
            f"infinite product with parameter {a}: factors never truncate"
        )
    out = [1] + [0] * (order - 1)
    for e in range(a.exp, order, step):
        _mul_binomial_list(out, a.coeff, e)
    return LaurentSeries(0, tuple(out), order)


def multi_poch_infinite(params, step: int, order: int) -> LaurentSeries:
    """Product of infinite Pochhammers over a list of monomial parameters."""
    out = LaurentSeries.one(order)
    for a in params:
        out = out.mul(poch_infinite(a, step, order))
    return out


def euler_qinf(order: int) -> LaurentSeries:
    """(q; q)_inf via the pentagonal-number expansion.

    sum_j (-1)^j q^(j(3j-1)/2) over all integers j, truncated at ``order``.
    Much faster than multiplying factors; the two constructions are
    cross-checked in the test suite.
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


def q_hyper_sum(uppers, lowers, t: Monomial, order: int) -> LaurentSeries:
    """sum_{k>=0} prod_i (u_i)_k * t^k / ((q)_k * prod_j (l_j)_k), truncated.

    All parameters are integer monomials; zero parameters contribute the
    constant Pochhammer 1.  The sum stops once t^k leaves the window, so a
    nonzero ``t`` must have positive exponent.  The term recurrence runs on
    one coefficient list with the shared binomial list kernels, and one
    series value is built at the end.  Term k is added at exponent
    k*t.exp, so before step k it is cut to its order - k*t.exp live
    coefficients; every update is causal, so the cut is exact.
    """
    if order < 1:
        raise WindowError("order must be at least 1")
    if t.is_zero():
        return LaurentSeries.one(order)
    if t.exp < 1:
        raise PochhammerError(f"series in powers of {t} does not truncate")
    uppers = [u for u in uppers if not u.is_zero()]
    lowers = [l for l in lowers if not l.is_zero()]
    acc = [1] + [0] * (order - 1)
    term = acc[:]
    k, off = 1, t.exp
    while off < order:
        live = order - off  # a binomial (1 - c*q^e) with e >= live acts as 1
        del term[live:]
        scale = t.coeff
        for u in uppers:
            e = u.exp + k - 1
            if e == 0:
                scale *= 1 - u.coeff
            elif e < live:
                _mul_binomial_list(term, u.coeff, e)
        if k < live:
            _div_binomial_list(term, 1, k)
        for l in lowers:
            e = l.exp + k - 1
            if e == 0:
                if 1 - l.coeff == -1:
                    scale = -scale
                elif 1 - l.coeff != 1:
                    raise NonInvertibleError(
                        f"lower parameter {l} produces a non-unit constant factor"
                    )
            elif e < live:
                _div_binomial_list(term, l.coeff, e)
        if scale == 0:  # an upper (1; q)_k: this term and every later one vanish
            break
        if scale != 1:
            term = [scale * x for x in term]
        acc[off:] = map(operator.add, acc[off:], term)
        k += 1
        off += t.exp
    return LaurentSeries(0, tuple(acc), order)


def _poly_div_exact(num: LaurentSeries, den: LaurentSeries) -> LaurentSeries:
    # Exact polynomial division (den has constant term +-1); asserts the
    # remainder vanishes, which doubles as a self-test of the inputs.
    deg_n = max((e for e, _ in num.terms()), default=0)
    deg_d = max((e for e, _ in den.terms()), default=0)
    order = deg_n + 1
    q = num.extend(order).mul(den.extend(order).inverse(order)).truncate(order)
    check = q.mul(den.extend(order)).truncate(order)
    if not check.eq_to(num.extend(order), order):
        raise SeriesError("polynomial division left a remainder")
    return q.truncate(deg_n - deg_d + 1)


def qbin(a: int, b: int) -> LaurentSeries:
    """The Gaussian binomial coefficient as an exact polynomial.

    Computed as (q)_a / ((q)_b (q)_{a-b}) by exact division with a
    zero-remainder check; returns 0 for b < 0 or b > a.
    """
    if a < 0:
        raise ValueError("upper index must be non-negative")
    if b < 0 or b > a:
        return LaurentSeries.zero(1)
    q1 = Monomial.q()
    num = poch_finite(q1, 1, a)
    d1 = poch_finite(q1, 1, b)
    d2 = poch_finite(q1, 1, a - b)
    # extend before multiplying: the pessimistic product window would
    # otherwise truncate the exact polynomial
    w = d1.trunc_order + d2.trunc_order
    den = d1.extend(w).mul(d2.extend(w))
    return _poly_div_exact(num, den)


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
    lhs = poch_finite(z, 1, n).extend(order)
    rhs = LaurentSeries.zero(order)
    for j in range(n + 1):
        zj = z.power(j)  # zero only for j >= 1 with z = 0
        if zj.is_zero():
            continue
        sign = -1 if j % 2 else 1
        term = qbin(n, j).extend(order).shift(zj.exp + j * (j - 1) // 2)
        rhs = rhs.add(term.scale(sign * zj.coeff).truncate(order))
    return lhs, rhs
