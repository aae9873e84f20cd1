"""Truncated formal Laurent series over the integers.

A series value stores exact integer coefficients for every exponent e with
``min_exp <= e < trunc_order``.  Exponents below ``min_exp`` are structurally
zero; exponents at or past ``trunc_order`` are *unknown*, and reading them is
an error rather than a silent zero.  All operations propagate the truncation
window pessimistically, so a coefficient you can read is always correct.

Values are immutable; every operation returns a new series.

Coefficient kernels work on whole tuples.  ``add`` and ``eq_to`` line both
windows up by slicing, the structural zeros becoming a prefix pad; ``mul``
is Kronecker substitution (:func:`_kronecker`), which packs each operand
into one integer and multiplies once with CPython's bigint product;
``inverse`` starts with a short schoolbook recurrence and continues with
Newton steps on the same kernel.  Every result is exact.

The binomial kernels are in-place list kernels shared by the
``mul_binomial``/``div_binomial`` methods and by :mod:`qpartitions.qobjects`,
whose Pochhammer products and ``q_hyper_sum`` run on one list and build one
series value at the end: :func:`_mul_binomial_list` is one pass over two
aligned slices, and :func:`_div_binomial_list` stays a running loop, since
each coefficient needs the one j places before it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class WindowError(SeriesError):
    """A coefficient outside the known window was requested or required."""


class NonInvertibleError(SeriesError):
    """Inversion of a series whose lowest nonzero coefficient is not a unit."""


# Coefficients of an inverse computed by the schoolbook recurrence before
# Newton steps take over.
_NEWTON_BASE = 32


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The first ``n`` coefficients of the product of polynomials a and b.

    Each operand is evaluated at 2**w as one integer and the two integers
    are multiplied once.  A product coefficient is a sum of at most
    min(len a, len b) terms, so its size is below 2**(bits(max|a|) +
    bits(max|b|) + bits(min(len a, len b))); one more bit for the sign keeps
    the slots from carrying into each other.  Digits are offset-binary (each
    slot holds c + 2**(w-1)), so signed coefficients unpack exactly.
    """
    a, b = a[:n], b[:n]
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if not ma or not mb:
        return (0,) * n
    size = (ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8
    off = 1 << (8 * size - 1)
    rep = off.to_bytes(size, "little")  # one slot holding the offset

    def pack(x):
        digits = b"".join([(c + off).to_bytes(size, "little") for c in x])
        return int.from_bytes(digits, "little") - int.from_bytes(rep * len(x), "little")

    prod = pack(a) * pack(b) + int.from_bytes(rep * n, "little")
    width = size * n
    buf = (prod & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    from_bytes = int.from_bytes
    return tuple([from_bytes(buf[i : i + size], "little") - off for i in range(0, width, size)])


def _mul_binomial_list(x: list[int], c: int, j: int) -> None:
    """Multiply the coefficient list x by (1 - c*q**j) in place, j >= 1."""
    x[j:] = [a - c * b for a, b in zip(x[j:], x)]


def _div_binomial_list(x: list[int], c: int, j: int) -> None:
    """Divide the coefficient list x by (1 - c*q**j) in place, j >= 1."""
    for i in range(j, len(x)):
        x[i] += c * x[i - j]


@dataclass(frozen=True)
class LaurentSeries:
    """A Laurent series truncated at ``trunc_order``.

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``; the tuple spans
    the whole window, so ``len(coeffs) == trunc_order - min_exp``.
    """

    min_exp: int
    coeffs: tuple[int, ...]
    trunc_order: int

    def __post_init__(self) -> None:
        if self.min_exp > self.trunc_order:
            raise WindowError(
                f"min_exp {self.min_exp} exceeds trunc_order {self.trunc_order}"
            )
        if len(self.coeffs) != self.trunc_order - self.min_exp:
            raise WindowError(
                f"coefficient storage ({len(self.coeffs)}) does not match window "
                f"[{self.min_exp}, {self.trunc_order})"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, order: int, min_exp: int = 0) -> "LaurentSeries":
        """The zero series with window [min_exp, order)."""
        if min_exp > order:
            min_exp = order
        return cls(min_exp, (0,) * (order - min_exp), order)

    @classmethod
    def monomial(cls, c: int, e: int, order: int) -> "LaurentSeries":
        """The single term c*q**e known up to ``order``."""
        if e >= order:
            raise WindowError(f"monomial exponent {e} not below trunc_order {order}")
        lo = min(e, 0)
        coeffs = [0] * (order - lo)
        coeffs[e - lo] = c
        return cls(lo, tuple(coeffs), order)

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def from_coeffs(cls, coeffs, min_exp: int = 0, order: int | None = None) -> "LaurentSeries":
        """Series from a coefficient list starting at ``min_exp``.

        With ``order`` given, the list is zero-padded (the extra coefficients
        are declared exactly zero, as for a polynomial).
        """
        coeffs = list(coeffs)
        if order is None:
            order = min_exp + len(coeffs)
        pad = order - min_exp - len(coeffs)
        if pad < 0:
            raise WindowError("order smaller than the provided coefficients")
        return cls(min_exp, tuple(coeffs) + (0,) * pad, order)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def coeff(self, n: int) -> int:
        """The coefficient of q**n; raises WindowError outside the window."""
        if not self.min_exp <= n < self.trunc_order:
            raise WindowError(
                f"exponent {n} outside known window [{self.min_exp}, {self.trunc_order})"
            )
        return self.coeffs[n - self.min_exp]

    def _span(self, lo: int, hi: int) -> tuple[int, ...]:
        # Coefficients of q**lo .. q**(hi-1), the structural zeros below
        # min_exp as a prefix pad; the caller guarantees lo <= min_exp and
        # hi <= trunc_order (lo > hi gives the empty tuple).
        m = self.min_exp
        return (0,) * (min(m, hi) - lo) + self.coeffs[: max(hi - m, 0)]

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if none stored."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.min_exp + i
        return None

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return self.valuation() is None

    def terms(self):
        """Yield (exponent, coefficient) for each nonzero known coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def eq_to(self, other: "LaurentSeries", order: int) -> bool:
        """Coefficientwise equality for all exponents below ``order``.

        Leading zeros are ignored: an exponent below one operand's min_exp
        compares as zero.  Requires both windows to reach ``order``.
        """
        if order > self.trunc_order or order > other.trunc_order:
            raise WindowError(
                f"comparison order {order} exceeds a window "
                f"({self.trunc_order}, {other.trunc_order})"
            )
        lo = min(self.min_exp, other.min_exp)
        return self._span(lo, order) == other._span(lo, order)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        """Coefficientwise sum; the window shrinks to what both sides know."""
        lo = min(self.min_exp, other.min_exp)
        hi = min(self.trunc_order, other.trunc_order)
        if lo > hi:
            lo = hi
        out = tuple(map(operator.add, self._span(lo, hi), other._span(lo, hi)))
        return LaurentSeries(lo, out, hi)

    def neg(self) -> "LaurentSeries":
        return LaurentSeries(self.min_exp, tuple([-x for x in self.coeffs]), self.trunc_order)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def scale(self, c: int) -> "LaurentSeries":
        """Multiply every coefficient by the integer c; values are frozen, so
        scaling by 1 returns this value itself."""
        if c == 1:
            return self
        return LaurentSeries(self.min_exp, tuple([c * x for x in self.coeffs]), self.trunc_order)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Cauchy product on the largest window the inputs can certify.

        The result is known for e < min(a.trunc + b.min, b.trunc + a.min):
        past that, coefficients would need unknown terms of one factor.
        """
        lo = self.min_exp + other.min_exp
        hi = min(self.trunc_order + other.min_exp, other.trunc_order + self.min_exp)
        n = hi - lo  # == min(len(a), len(b)) window lengths
        return LaurentSeries(lo, _kronecker(self.coeffs, other.coeffs, n), hi)

    def inverse(self, order: int) -> "LaurentSeries":
        """Multiplicative inverse with ``order`` computed coefficients.

        The lowest nonzero coefficient must be +1 or -1 (a unit over the
        integers), and the input window must supply ``order`` coefficients
        starting from that valuation.  The first coefficients come from the
        schoolbook recurrence; each Newton step g <- g + g*(1 - u*g) then
        doubles the known prefix.
        """
        v = self.valuation()
        if v is None:
            raise NonInvertibleError("cannot invert the zero series")
        u0 = self.coeffs[v - self.min_exp]
        if u0 not in (1, -1):
            raise NonInvertibleError(
                f"lowest nonzero coefficient {u0} is not a unit; cannot invert exactly"
            )
        if order < 1:
            raise WindowError("inverse needs a positive number of coefficients")
        if v + order > self.trunc_order:
            raise WindowError(
                f"inverse to {order} coefficients needs the input known on "
                f"[{v}, {v + order}), but its window ends at {self.trunc_order}"
            )
        base = v - self.min_exp
        u = self.coeffs[base : base + order]
        k = min(order, _NEWTON_BASE)
        inv = [0] * k
        inv[0] = u0  # 1/u0 == u0 for u0 = +-1
        for n in range(1, k):
            s = 0
            for i in range(1, n + 1):
                ui = u[i]
                if ui:
                    s += ui * inv[n - i]
            inv[n] = -u0 * s
        g = tuple(inv)
        while k < order:
            k2 = min(2 * k, order)
            err = _kronecker(u, g, k2)[k:]  # u*g == 1 + O(q**k)
            g += tuple([-x for x in _kronecker(g, err, k2 - k)])
            k = k2
        return LaurentSeries(-v, g, -v + order)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by q**k: exponents and window translate by k."""
        return LaurentSeries(self.min_exp + k, self.coeffs, self.trunc_order + k)

    def pos_part(self) -> "LaurentSeries":
        """Keep only exponents >= 1 (window unchanged)."""
        out = tuple(
            c if self.min_exp + i >= 1 else 0 for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.min_exp, out, self.trunc_order)

    def nonpos_part(self) -> "LaurentSeries":
        """Keep only exponents <= 0 (window unchanged)."""
        out = tuple(
            c if self.min_exp + i <= 0 else 0 for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.min_exp, out, self.trunc_order)

    def truncate(self, order: int) -> "LaurentSeries":
        """Shrink the window to end at ``order`` (never unsound)."""
        hi = min(self.trunc_order, order)
        if hi >= self.trunc_order:
            return self
        lo = min(self.min_exp, hi)
        return LaurentSeries(lo, self.coeffs[: hi - lo], hi)

    def extend(self, order: int) -> "LaurentSeries":
        """Declare zero coefficients up to ``order``.

        Only valid when the value is an exact (Laurent) polynomial whose
        support ends inside the current window; the caller asserts that.
        """
        if order <= self.trunc_order:
            return self
        pad = (0,) * (order - self.trunc_order)
        return LaurentSeries(self.min_exp, self.coeffs + pad, order)

    # ------------------------------------------------------------------
    # in-window binomial helpers (window-preserving, O(len) each)
    # ------------------------------------------------------------------

    def mul_binomial(self, c: int, j: int) -> "LaurentSeries":
        """Multiply by the exact polynomial (1 - c*q**j), j >= 1."""
        if j < 1:
            raise WindowError("binomial exponent must be positive")
        out = list(self.coeffs)
        _mul_binomial_list(out, c, j)
        return LaurentSeries(self.min_exp, tuple(out), self.trunc_order)

    def div_binomial(self, c: int, j: int) -> "LaurentSeries":
        """Divide by (1 - c*q**j), j >= 1 (always a unit)."""
        if j < 1:
            raise WindowError("binomial exponent must be positive")
        out = list(self.coeffs)
        _div_binomial_list(out, c, j)
        return LaurentSeries(self.min_exp, tuple(out), self.trunc_order)

    # ------------------------------------------------------------------
    # operators / display
    # ------------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.sub(other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.mul(other)

    def __neg__(self) -> "LaurentSeries":
        return self.neg()

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms():
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q^{e}" if e != 1 else f"{mag}q"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.trunc_order})"
