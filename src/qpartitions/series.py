"""Truncated formal Laurent series over the integers, and exact polynomials.

A series value stores exact integer coefficients for every exponent e with
``min_exp <= e < trunc_order``.  Exponents below ``min_exp`` are structurally
zero.  Past ``trunc_order`` an *exact* value (a Laurent polynomial) is zero,
while a *truncated* value is *unknown*, and reading it there is an error
rather than a silent zero.  Ring operations on exact values stay exact; a
truncated operand's window propagates pessimistically, so a coefficient you
can read is always correct.  ``truncate`` puts a polynomial on a window.

Values are immutable; every operation returns a new series.

Coefficient kernels work on whole tuples.  ``add`` and ``eq_to`` line both
windows up by slicing, the structural zeros becoming a prefix pad; ``mul``
is Kronecker substitution (:func:`_kronecker`), which packs each operand
into one integer and multiplies once with CPython's bigint product (a
slot that fits a 1, 2, 4 or 8-byte word is packed and unpacked by one
``struct`` call per operand, a wider one byte string by byte string).  An
operand with fewer than one nonzero in ``_SPARSE_RATIO`` coefficients,
such as the pentagonal (q;q)_inf or a slice of it, is not packed: the
product is the sum of the other packed operand shifted once per nonzero
term, and it unpacks as before.  ``inverse`` starts with a short
schoolbook recurrence and continues with Newton steps on the same kernel.
:mod:`qpartitions.qobjects` calls the kernel too: an infinite product with
a unit parameter is solved from its logarithmic derivative by halves, and
one Kronecker product adds each lower half's share of the recurrence to
its upper half.  Every result is exact.

The binomial kernels are in-place list kernels shared by the
``mul_binomial``/``div_binomial`` methods and by :mod:`qpartitions.qobjects`,
whose finite Pochhammer products, infinite ones with a non-unit parameter
and ``q_hyper_sum`` run on one list and build one series value at the
end; ``closed_forms.gf_a_m_sum`` runs its nested k-sum on the divide
kernel alone.  :func:`_mul_binomial_list` is one pass
over two aligned slices (a ``map`` of ``operator.sub`` or ``operator.add``
for c = 1 or -1, the factors of (q)_n and (-q)_n, and a list
comprehension for any other c).  The slice assignment consumes the whole
``map`` before it writes, so the pass reads only the old coefficients.
:func:`_div_binomial_list` is a running loop, since each coefficient needs
the new one j places before it.  It too has three passes: ``x[i] +=
x[i - j]`` for c = 1, which is most calls ((q)_k in ``q_hyper_sum``, each
step of ``gf_a_m_sum``, the Gaussian binomials), ``x[i] -= x[i - j]`` for
c = -1, and ``x[i] += c * x[i - j]`` for any other c.
"""

from __future__ import annotations

import operator
import struct
from itertools import compress

from .record import FrozenRecord


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class WindowError(SeriesError):
    """A coefficient outside the known window was requested or required."""


class NonInvertibleError(SeriesError):
    """Inversion of a series whose lowest nonzero coefficient is not a unit."""


# Coefficients of an inverse computed by the schoolbook recurrence before
# Newton steps take over.
_NEWTON_BASE = 32

# A product operand with fewer than one nonzero coefficient in this many is
# added as shifted copies of the other operand (see _packed_product).
_SPARSE_RATIO = 12


def _kronecker(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The first ``n`` coefficients of the product of polynomials a and b.

    Each operand is evaluated at 2**w as one integer and the two integers
    are multiplied once.  A product coefficient is a sum of at most
    min(len a, len b) terms, so its size is below 2**(bits(max|a|) +
    bits(max|b|) + bits(min(len a, len b))); one more bit for the sign keeps
    the slots from carrying into each other.  Digits are offset-binary (each
    slot holds c + 2**(w-1)), so signed coefficients unpack exactly.

    A slot of at most 8 bytes is rounded up to a machine word of 1, 2, 4
    or 8 bytes, and ``struct`` packs and unpacks the whole operand at once.
    A packed operand holds each negative slot as its two's complement, so
    2**w is subtracted for each slot whose sign bit is set; the product's
    slots are offset into [0, 2**w), and flipping each slot's top bit turns
    them back into two's complement for ``struct.unpack``.  Wider slots go
    through one ``to_bytes`` per coefficient.

    Both paths form the same integer product with :func:`_packed_product`,
    which adds a sparse operand as shifted copies of the other.
    """
    a, b = a[:n], b[:n]
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if not ma or not mb:
        return (0,) * n
    size = (ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8
    if size <= 8:
        fmt = "bhiiqqqq"[size - 1]  # the smallest word that holds the slot
        w = struct.calcsize("<" + fmt)
        bits = 8 * w
        ones = int.from_bytes((b"\1" + bytes(w - 1)) * n, "little")  # 1 in every slot
        off = ones << (bits - 1)  # 2**(bits - 1) in every slot

        def pack_word(x):
            u = int.from_bytes(struct.pack(f"<{len(x)}{fmt}", *x), "little")
            return u - (((u >> (bits - 1)) & ones) << bits)

        prod = _packed_product(a, b, pack_word, bits)
        prod = ((prod + off) & ((1 << (bits * n)) - 1)) ^ off
        return struct.unpack(f"<{n}{fmt}", prod.to_bytes(w * n, "little"))
    off = 1 << (8 * size - 1)
    rep = off.to_bytes(size, "little")  # one slot holding the offset

    def pack(x):
        digits = b"".join([(c + off).to_bytes(size, "little") for c in x])
        return int.from_bytes(digits, "little") - int.from_bytes(rep * len(x), "little")

    prod = _packed_product(a, b, pack, 8 * size) + int.from_bytes(rep * n, "little")
    width = size * n
    buf = (prod & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    from_bytes = int.from_bytes
    return tuple([from_bytes(buf[i : i + size], "little") - off for i in range(0, width, size)])


def _packed_product(a, b, pack, bits: int) -> int:
    """pack(a) * pack(b) for operands packed ``bits`` to a slot.

    When the operand with fewer nonzeros has fewer than one in
    ``_SPARSE_RATIO`` coefficients, the product is the sum of its terms
    c * pack(other) * 2**(bits * i), one shifted add each (pack(other) is
    negated once for every c = -1), in place of one dense product.
    """
    nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    if nonzero_b < nonzero_a:
        a, b, nonzero_a = b, a, nonzero_b
    if nonzero_a * _SPARSE_RATIO >= len(a):
        return pack(a) * pack(b)
    pb = pack(b)
    nb = -pb
    prod = 0
    for i in compress(range(len(a)), a):  # the exponents of a's nonzero terms
        c = a[i]
        prod += (pb if c == 1 else nb if c == -1 else c * pb) << bits * i
    return prod


def _mul_binomial_list(x: list[int], c: int, j: int) -> None:
    """Multiply the coefficient list x by (1 - c*q**j) in place, j >= 1."""
    if c == 1:
        x[j:] = map(operator.sub, x[j:], x)
    elif c == -1:
        x[j:] = map(operator.add, x[j:], x)
    else:
        x[j:] = [a - c * b for a, b in zip(x[j:], x)]


def _div_binomial_list(x: list[int], c: int, j: int) -> None:
    """Divide the coefficient list x by (1 - c*q**j) in place, j >= 1."""
    if c == 1:
        for i in range(j, len(x)):
            x[i] += x[i - j]
    elif c == -1:
        for i in range(j, len(x)):
            x[i] -= x[i - j]
    else:
        for i in range(j, len(x)):
            x[i] += c * x[i - j]


class LaurentSeries(FrozenRecord):
    """A Laurent series truncated at ``trunc_order``, or an exact polynomial.

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``; the tuple spans
    the whole stored window, so ``len(coeffs) == trunc_order - min_exp``.
    With ``exact`` the coefficients past ``trunc_order`` are known zeros.
    """

    __match_args__ = ("min_exp", "coeffs", "trunc_order", "exact")

    def __init__(self, min_exp: int, coeffs: tuple[int, ...], trunc_order: int,
                 exact: bool = False) -> None:
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "exact", exact)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.min_exp, self.coeffs, self.trunc_order, self.exact) == (
                other.min_exp, other.coeffs, other.trunc_order, other.exact)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.min_exp, self.coeffs, self.trunc_order, self.exact))

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

        With ``order`` given, the list is zero-padded to that window end; the
        value is truncated there (see :meth:`polynomial` for exact values).
        """
        coeffs = list(coeffs)
        if order is None:
            order = min_exp + len(coeffs)
        pad = order - min_exp - len(coeffs)
        if pad < 0:
            raise WindowError("order smaller than the provided coefficients")
        return cls(min_exp, tuple(coeffs) + (0,) * pad, order)

    @classmethod
    def polynomial(cls, coeffs, min_exp: int = 0) -> "LaurentSeries":
        """The exact Laurent polynomial with these coefficients from ``min_exp``."""
        coeffs = tuple(coeffs)
        return cls(min_exp, coeffs, min_exp + len(coeffs), True)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def coeff(self, n: int) -> int:
        """The coefficient of q**n: 0 below ``min_exp`` and past an exact
        value's support; raises WindowError past a truncated window."""
        if n < self.trunc_order:
            return self.coeffs[n - self.min_exp] if n >= self.min_exp else 0
        if self.exact:
            return 0
        raise WindowError(
            f"exponent {n} outside known window [{self.min_exp}, {self.trunc_order})"
        )

    def _span(self, lo: int, hi: int) -> tuple[int, ...]:
        # Coefficients of q**lo .. q**(hi-1), the structural zeros below
        # min_exp as a prefix pad (an exact value's past trunc_order as a
        # suffix); the caller guarantees lo <= min_exp and, unless the value
        # is exact, hi <= trunc_order (lo > hi gives the empty tuple).
        m = self.min_exp
        return ((0,) * (min(m, hi) - lo) + self.coeffs[: max(hi - m, 0)]
                + (0,) * (hi - self.trunc_order))

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
        compares as zero.  Requires each truncated operand's window to
        reach ``order``; an exact operand reaches every order.
        """
        if any(order > s.trunc_order for s in (self, other) if not s.exact):
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
        """Coefficientwise sum; the window shrinks to what both sides know,
        and the sum of two exact values is exact."""
        lo = min(self.min_exp, other.min_exp)
        exact = self.exact and other.exact
        if exact:
            hi = max(self.trunc_order, other.trunc_order)
        else:
            hi = min([s.trunc_order for s in (self, other) if not s.exact])
            lo = min(lo, hi)
        out = tuple(map(operator.add, self._span(lo, hi), other._span(lo, hi)))
        return LaurentSeries(lo, out, hi, exact)

    def neg(self) -> "LaurentSeries":
        return self.scale(-1)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def scale(self, c: int) -> "LaurentSeries":
        """Multiply every coefficient by the integer c; values are frozen, so
        scaling by 1 returns this value itself."""
        if c == 1:
            return self
        return LaurentSeries(self.min_exp, tuple([c * x for x in self.coeffs]), self.trunc_order,
                             self.exact)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Cauchy product on the largest window the inputs can certify.

        Two exact factors give their full, exact product.  Otherwise the
        result is known for e < b.trunc + a.min for each truncated factor b
        and its cofactor a: past that, coefficients would need unknown terms.
        """
        a, b = self.coeffs, other.coeffs
        lo = self.min_exp + other.min_exp
        exact = self.exact and other.exact
        if exact:
            n = max(len(a) + len(b) - 1, 0)
        else:
            n = min(len(b) if self.exact else len(a), len(a) if other.exact else len(b))
        return LaurentSeries(lo, _kronecker(a, b, n), lo + n, exact)

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
        if v + order > self.trunc_order and not self.exact:
            raise WindowError(
                f"inverse to {order} coefficients needs the input known on "
                f"[{v}, {v + order}), but its window ends at {self.trunc_order}"
            )
        base = v - self.min_exp
        u = self.coeffs[base : base + order]
        u += (0,) * (order - len(u))  # an exact value's zeros past its support
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
        return LaurentSeries(self.min_exp + k, self.coeffs, self.trunc_order + k, self.exact)

    def pos_part(self) -> "LaurentSeries":
        """Keep only exponents >= 1 (window unchanged)."""
        out = tuple(
            c if self.min_exp + i >= 1 else 0 for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.min_exp, out, self.trunc_order, self.exact)

    def nonpos_part(self) -> "LaurentSeries":
        """Keep only exponents <= 0 (window unchanged)."""
        out = tuple(
            c if self.min_exp + i <= 0 else 0 for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.min_exp, out, self.trunc_order, self.exact)

    def truncate(self, order: int) -> "LaurentSeries":
        """The truncated value on the window ending at ``order`` (never
        unsound); an exact value's window is [min(min_exp, order), order)."""
        if order >= self.trunc_order and not self.exact:
            return self
        lo = min(self.min_exp, order)
        return LaurentSeries(lo, self._span(lo, order), order)

    def extend(self, order: int) -> "LaurentSeries":
        """This value, if it is known below ``order``; a truncated value
        never pads unknown coefficients with zeros, it raises WindowError."""
        if self.exact or order <= self.trunc_order:
            return self
        raise WindowError(
            f"order {order} past the known window [{self.min_exp}, {self.trunc_order})"
        )

    # ------------------------------------------------------------------
    # in-window binomial helpers (window-preserving, O(len) each, truncated)
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
        return body if self.exact else f"{body} + O(q^{self.trunc_order})"
