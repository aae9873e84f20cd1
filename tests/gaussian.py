"""A Gaussian-binomial reference that shares no loop with ``qbin``.

``qbin`` and the windowed ``qbin`` leaves step the product form
prod (1 - q^(a-j+1)) / (1 - q^j) on one list.  This reference divides
(q)_a by (q)_b (q)_{a-b} with a series inverse instead, so a fault in that
product form cannot hide in both sides of a comparison.
"""

from qpartitions.qobjects import Monomial, poch_finite
from qpartitions.series import LaurentSeries


def gaussian_by_division(a, b):
    """qbin(a, b) as an exact value: (q)_a / ((q)_b (q)_{a-b}) by a series
    inverse on a window holding every polynomial exactly; 0 unless
    0 <= b <= a."""
    if not 0 <= b <= a:
        return LaurentSeries.polynomial([0])
    w = a * (a + 1) // 2 + 1
    q = Monomial.q()

    def windowed(s):
        return LaurentSeries.from_coeffs(s.coeffs, 0, w)

    den = windowed(poch_finite(q, 1, b)).mul(windowed(poch_finite(q, 1, a - b)))
    quotient = windowed(poch_finite(q, 1, a)).mul(den.inverse(w))
    degree = b * (a - b)
    assert not any(quotient.coeffs[degree + 1:])  # the quotient is a polynomial
    return LaurentSeries.polynomial(quotient.coeffs[: degree + 1])
