"""The identity catalog, the verification engine, and the explicit bijections.

Every identity pairs two independently computed evaluators: for countwise
entries one side is a brute-force enumeration (or a second enumeration
family) and the other a closed form; for serieswise entries two series
constructions, or a series against enumerated coefficients.  Refutation is
a first-class outcome: the engine reports every mismatch it finds instead
of asserting the catalog is flawless, and two entries (remark7, reg_div
without its divisibility hypothesis) are expected to refute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from . import closed_forms as cf
from . import enumeration as en
from .qobjects import Monomial, poch_infinite, q_hyper_sum, qbinomial_theorem_lhs_rhs
from .series import LaurentSeries, SeriesError

_MONOS = (
    Monomial.zero(),
    Monomial(1, 1),
    Monomial(-1, 1),
    Monomial(1, 2),
    Monomial(-1, 2),
    Monomial(1, 3),
)


class UnknownIdentityError(KeyError):
    """Requested identity id is not in the registry."""


@dataclass(frozen=True)
class Identity:
    """A registered claim with two independent evaluators, as data.

    ``bound`` is the default grid bound: the largest n (``to``) for a
    countwise entry, the series order (``order``) for a serieswise one.
    ``grid(N, incl)`` describes the grid that bound N spans and
    ``points(N, incl)`` generates it (``incl`` is ``include_nondivisible``):
    parameter dicts for a countwise entry, ``(params, lhs, rhs, exponents)``
    cases for a serieswise one.  ``sides(N)``, countwise entries only,
    returns the ``(lhs, rhs)`` evaluators, each called with a point's
    parameters as keywords; it first reads whatever lies past the grid's
    largest n, so that each plain enumeration key is swept once, to its
    deepest read.  Sides call other modules through their attributes at
    call time (``lambda n: cf.a3_via_p(n)``), never through a function
    object stored here, so that a wrapper later set on the module (a
    tracer's hook, a test's monkeypatch) sees every call.
    """

    id: str
    kind: str  # "countwise" | "serieswise"
    statement: str
    bound: int
    grid: Callable[[int, bool], str]
    points: Callable[[int, bool], Iterable]
    sides: Callable[[int], tuple[Callable, Callable]] | None = None


@dataclass
class VerificationReport:
    """Machine-readable outcome of checking one identity over a grid."""

    identity: str
    grid: str
    status: str  # "verified" | "refuted" | "skipped"
    points: int
    counterexamples: list[dict]
    seconds: float
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status == "refuted" and not self.counterexamples:
            raise ValueError("refuted reports must carry counterexamples")
        if self.status == "verified" and self.counterexamples:
            raise ValueError("verified reports cannot carry counterexamples")

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "grid": self.grid,
            "status": self.status,
            "points": self.points,
            "counterexamples": [
                {
                    "params": {k: str(v) for k, v in ce["params"].items()},
                    "lhs": str(ce["lhs"]),
                    "rhs": str(ce["rhs"]),
                }
                for ce in self.counterexamples
            ],
            "seconds": round(self.seconds, 6),
            "reason": self.reason,
        }


def _coeff0(s: LaurentSeries, n: int) -> int:
    # Coefficient with the structural zero below min_exp made explicit;
    # exponents at or past the window still raise.
    if n < s.min_exp:
        return 0
    return s.coeff(n)


def _count_grid(points, lhs, rhs):
    # Evaluated from the largest n down, so that each enumeration key is
    # first asked for its largest n and swept once (see _HistCache); sides
    # that read past n ask for that depth themselves first.
    # Counterexamples are returned in grid order.
    points = list(points)
    found = {}
    for i in sorted(range(len(points)), key=lambda i: points[i]["n"], reverse=True):
        params = points[i]
        lv = lhs(**params)
        rv = rhs(**params)
        if lv != rv:
            found[i] = {"params": params, "lhs": lv, "rhs": rv}
    return len(points), [found[i] for i in sorted(found)]


def _series_grid(cases):
    # cases: iterable of (params, lhs_series, rhs_series, exponents)
    ces = []
    npts = 0
    for params, lhs, rhs, exps in cases:
        for e in exps:
            npts += 1
            lv = _coeff0(lhs, e)
            rv = _coeff0(rhs, e)
            if lv != rv:
                ces.append({"params": {**params, "n": e}, "lhs": lv, "rhs": rv})
    return npts, ces


# ----------------------------------------------------------------------
# grids, serieswise cases and countwise sides
# ----------------------------------------------------------------------


def _n_points(N, incl):
    return ({"n": n} for n in range(1, N + 1))


def _n_grid(N, incl):
    return f"1 <= n <= {N}"


def _mn_points(m_max):
    return lambda N, incl: (
        {"m": m, "n": n} for m in range(2, m_max + 1) for n in range(1, N + 1)
    )


def _mn_grid(m_max):
    return lambda N, incl: f"2 <= m <= {m_max}, 1 <= n <= {N}"


def _p_comb_sides(m, formula):
    # the deepest read first: the a_m generating function to N + 2
    def sides(N):
        gf = cf.gf_a_m_sum(m, N + 2)
        return lambda n: gf.coeff(n), formula

    return sides


def _counted_a_cases(m_min, closed_form):
    def cases(w, incl):
        for m in range(m_min, 7):
            counts = [en.count_a(m, n) for n in range(w - 1, 0, -1)]  # largest n first
            counted = LaurentSeries.from_coeffs([0] + counts[::-1], 0, w)
            yield {"m": m}, counted, closed_form(m, w), range(1, w)

    return cases


def _thm_and_cases(w, incl):
    for l in range(2, 9):
        for m in range(1, l):
            counted = LaurentSeries.from_coeffs(
                [0] + [en.count_a_diff(m, n, l) for n in range(1, w)], 0, w
            )
            yield {"m": m, "l": l}, counted, cf.gf_a_m_diff(m, l, w), range(1, w)


@lru_cache(maxsize=None)
def _inverse_poch(a: Monomial, w: int) -> LaurentSeries:
    # 1/(a; q)_inf on [0, w).  Values are frozen, so the case generators
    # below share one inverse per distinct (a, w), as poch_infinite does.
    return poch_infinite(a, 1, w).inverse(w)


def _cauchy_cases(w, incl):
    for a in _MONOS:
        for t in _MONOS:
            lhs = q_hyper_sum((a,), (), t, w)
            rhs = poch_infinite(a.times(t), 1, w).mul(_inverse_poch(t, w))
            yield {"a": a, "t": t}, lhs, rhs, range(w)


def _cauchy_cor_cases(w, incl):
    for t in _MONOS:
        yield {"t": t}, q_hyper_sum((), (), t, w), _inverse_poch(t, w), range(w)


def _heine_cases(w, incl):
    for a in _MONOS:
        for b in _MONOS:
            for t in _MONOS:
                c_params = [Monomial.zero()]
                if not t.is_zero() and not b.is_zero() and b.exp <= t.exp + 1:
                    c_params.append(Monomial(1, t.exp + 1))
                for c in c_params:
                    c_over_b = Monomial.zero() if c.is_zero() else c.over(b)
                    lhs = q_hyper_sum((a, b), (c,), t, w)
                    pref = poch_infinite(b, 1, w).mul(poch_infinite(a.times(t), 1, w))
                    pref = pref.mul(_inverse_poch(c, w))
                    pref = pref.mul(_inverse_poch(t, w))
                    rhs = pref.mul(
                        q_hyper_sum((c_over_b, t), (a.times(t),), b, w)
                    ).truncate(w)
                    yield {"a": a, "b": b, "t": t, "c": c}, lhs, rhs, range(w)


def _heine2_cases(w, incl):
    for a in (Monomial.zero(), Monomial(1, 1), Monomial(-1, 1), Monomial(1, 2)):
        for b in (Monomial(1, 1), Monomial(-1, 1), Monomial(1, 2)):
            for z in (Monomial(1, 1), Monomial(1, 2), Monomial(1, 3)):
                for extra in (0, 1):
                    c = Monomial(1, b.exp + z.exp + extra)
                    abz_over_c = Monomial.zero() if a.is_zero() else a.times(b).times(z).over(c)
                    c_over_b = c.over(b)
                    lhs = q_hyper_sum((a, b), (c,), z, w)
                    pref = poch_infinite(c_over_b, 1, w).mul(poch_infinite(b.times(z), 1, w))
                    pref = pref.mul(_inverse_poch(c, w))
                    pref = pref.mul(_inverse_poch(z, w))
                    rhs = pref.mul(
                        q_hyper_sum((abz_over_c, b), (b.times(z),), c_over_b, w)
                    ).truncate(w)
                    yield {"a": a, "b": b, "z": z, "c": c}, lhs, rhs, range(w)


def _qbinthm_cases(w, incl):
    for n in range(0, 9):
        for z in _MONOS:
            degree = 0 if z.is_zero() else n * z.exp + n * (n - 1) // 2
            weff = max(w, degree + 1)
            lhs, rhs = qbinomial_theorem_lhs_rhs(n, z, weff)
            yield {"n_index": n, "z": z}, lhs, rhs, range(weff)


def _over_a2_sides(N):
    en.count_pbar(N + 1)  # the deepest read: sweep the overpartition key once
    return (
        lambda n: en.count_abar(2, n),
        lambda n: 2 * en.count_pbar(n) - en.count_pbar(n + 1) + en.count_ubar(n + 1),
    )


def _reg_a2_sides(N):
    en.count_breg(2, N + 2)  # the deepest read: sweep the mod-2 key once
    return (
        lambda n: en.count_areg(2, 2, n),
        lambda n: en.count_breg(2, n) + en.count_breg(2, n + 1) - en.count_breg(2, n + 2),
    )


def _reg_div_points(N, incl):
    for l in (2, 3, 4, 5):
        for n in range(1, N + 1):
            if incl or n % l == 0:
                yield {"m": 2, "l": l, "n": n}
    for l in (2, 3):
        for n in range(1, N // 2 + 1):
            if n % l == 0:
                yield {"m": 3, "l": l, "n": n}


def _ubar_gf_cases(w, incl):
    # largest n first, so that the u-bar key is swept once
    counts = [en.count_ubar(n) for n in range(w - 1, 0, -1)]
    counted = LaurentSeries.from_coeffs([0] + counts[::-1], 0, w)
    yield {}, counted, cf.gf_ubar(w), range(1, w)


def _areg(m, l, n):
    return en.count_areg(m, l, n)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: list[Identity] = [
    Identity("prop1", "countwise",
             "a_2(n) = 2p(n) - p(n+1)",
             200, _n_grid, _n_points,
             _p_comb_sides(2, lambda n: cf.a2_via_p(n))),
    Identity("prop2", "countwise",
             "a_2(n) = p(2n, n)",
             25, _n_grid, _n_points,
             lambda N: (lambda n: en.count_a(2, n),
                        lambda n: en.count_p_fixed_diff(2 * n, n))),
    Identity("prop3", "countwise",
             "a_m(n) = a_{m-1}(2n, n)",
             25, _mn_grid(5), _mn_points(5),
             lambda N: (lambda m, n: en.count_a(m, n),
                        lambda m, n: en.count_a_diff(m - 1, 2 * n, n))),
    Identity("thmG1", "countwise",
             "a_m(n) = 2p(n) - p(n+1) - p(n-2) + p(n-m) - sum Q_{l,k}(n)",
             60, _mn_grid(6), _mn_points(6),
             lambda N: (lambda m, n: en.count_a(m, n),
                        lambda m, n: cf.aG1_via_p(m, n))),
    Identity("thm_a3", "countwise",
             "a_3(n) = 3p(n) - p(n+1) - 2p(n+2) + p(n+3)",
             120, _n_grid, _n_points,
             _p_comb_sides(3, lambda n: cf.a3_via_p(n))),
    Identity("thm_a4", "countwise",
             "a_4(n) = 4p(n) - p(n+1) - 2p(n+2) - 2p(n+3) + p(n+4) + 2p(n+5) - p(n+6)",
             120, _n_grid, _n_points,
             _p_comb_sides(4, lambda n: cf.a4_via_p(n))),
    Identity("eq_am", "serieswise",
             "sum a_m(n) q^n = sum_k q^(k+m)/(q)_{k+m} prod_{i<m}(1-q^(k+i))",
             60, lambda w, incl: f"1 <= m <= 6, coefficients below {w}",
             _counted_a_cases(1, lambda m, w: cf.gf_a_m_sum(m, w))),
    Identity("thm_am", "serieswise",
             "sum a_m(n) q^n = pos. part of bracket_m/(q)_inf",
             60, lambda w, incl: f"2 <= m <= 6, coefficients below {w}",
             _counted_a_cases(2, lambda m, w: cf.gf_a_m_thm(m, w))),
    Identity("thm_and", "serieswise",
             "sum a_m(n,l) q^n equals its Gaussian-binomial closed form",
             60, lambda w, incl: f"1 <= m < l <= 8, coefficients below {w}",
             _thm_and_cases),
    Identity("cauchy", "serieswise",
             "sum (a)_k t^k/(q)_k = (at)_inf/(t)_inf",
             50, lambda w, incl: f"a, t monomials, coefficients below {w}",
             _cauchy_cases),
    Identity("cauchy_cor", "serieswise",
             "sum t^k/(q)_k = 1/(t)_inf",
             50, lambda w, incl: f"t monomial, coefficients below {w}",
             _cauchy_cor_cases),
    Identity("heine", "serieswise",
             "sum (a)_k(b)_k t^k/((q)_k(c)_k) = (b)(at)/((c)(t)) sum (c/b)_k(t)_k b^k/((q)_k(at)_k)",
             50, lambda w, incl: "monomial grid with c in {0, q^(e_t+1)}, "
                                 f"coefficients below {w}",
             _heine_cases),
    Identity("heine2", "serieswise",
             "sum (a)_k(b)_k z^k/((q)_k(c)_k) = (c/b)(bz)/((c)(z)) sum (abz/c)_j(b)_j(c/b)^j/((q)_j(bz)_j)",
             50, lambda w, incl: "monomial grid with c = q^(e_b+e_z+{0,1}), "
                                 f"coefficients below {w}",
             _heine2_cases),
    Identity("qbinthm", "serieswise",
             "(z)_n = sum_j qbin(n,j) (-1)^j z^j q^(j(j-1)/2)",
             50, lambda w, incl: "0 <= n <= 8, z monomial, exact polynomials",
             _qbinthm_cases),
    Identity("over_a2", "countwise",
             "abar_2(n) = 2pbar(n) - pbar(n+1) + ubar(n+1)",
             20, _n_grid, _n_points, _over_a2_sides),
    Identity("over1", "countwise",
             "2 abar_2(n) = pbar(2n, n)",
             16, _n_grid, _n_points,
             lambda N: (lambda n: 2 * en.count_abar(2, n),
                        lambda n: en.count_pbar_diff(2 * n, n))),
    Identity("over_gen", "countwise",
             "2 abar_m(n) = abar_{m-1}(2n, n)",
             14, _mn_grid(4), _mn_points(4),
             lambda N: (lambda m, n: 2 * en.count_abar(m, n),
                        lambda m, n: en.count_abar_diff(m - 1, 2 * n, n))),
    Identity("reg_a2", "countwise",
             "a_{2(2)}(n) = b_2(n) + b_2(n+1) - b_2(n+2)",
             60, _n_grid, _n_points, _reg_a2_sides),
    Identity("reg_div", "countwise",
             "a_{m(l)}(n) = a_{m-1(l)}(2n, n) for l | n (m=2 gives b_l(2n,n))",
             48, lambda N, incl: f"m=2: l in 2..5, n <= {N}; m=3: l in 2..3, n <= {N // 2}"
                                 + (" (all n)" if incl else " (l | n only)"),
             _reg_div_points,
             lambda N: (_areg, lambda m, l, n: en.count_breg_diff(l, 2 * n, n) if m == 2
                        else en.count_areg_diff(m - 1, l, 2 * n, n))),
    Identity("reg_odd", "countwise",
             "a_{2(2)}(n) = b_2(2n+1, n+1) for odd n",
             31, lambda N, incl: f"odd n <= {N}",
             lambda N, incl: ({"n": n} for n in range(1, N + 1, 2)),
             lambda N: (lambda n: en.count_areg(2, 2, n),
                        lambda n: en.count_breg_diff(2, 2 * n + 1, n + 1))),
    Identity("reg_nondiv", "countwise",
             "a_{m(l)}(n) = a_{(m-1)(l)}(2n+l-r, n+l-r), r = n mod l != 0",
             30, lambda N, incl: f"2 <= m <= 4, l in 2..4, n <= {N} with l not dividing n",
             lambda N, incl: ({"m": m, "l": l, "n": n} for m in range(2, 5)
                              for l in (2, 3, 4) for n in range(1, N + 1) if n % l != 0),
             lambda N: (_areg, lambda m, l, n: en.count_areg_diff(
                 m - 1, l, 2 * n + l - n % l, n + l - n % l))),
    Identity("remark7", "countwise",
             "p(2n, n) = 1 + p(n-2) + sum_{m=2}^{floor(n/3)} p*_m(n-2m)",
             60, _n_grid, _n_points,
             lambda N: (lambda n: en.count_p_fixed_diff(2 * n, n),
                        lambda n: cf.remark7_rhs(n))),
    Identity("ubar_gf", "serieswise",
             "sum ubar(n) q^n = 2 sum_k (q^(2k+1)/(q^(k+1);q)_1 + sum_t q^(3k+2t-1)(1+q)(-q^(k+1);q)_{t-2}/(q^(k+1);q)_t)",
             26, lambda w, incl: f"coefficients 1 <= n < {w}",
             _ubar_gf_cases),
]


def registry() -> list[Identity]:
    """The complete identity catalog in its stable order."""
    return list(_REGISTRY)


def get_identity(identity_id: str) -> Identity:
    for ident in _REGISTRY:
        if ident.id == identity_id:
            return ident
    raise UnknownIdentityError(identity_id)


def verify(identity_id: str, *, to: int | None = None, order: int | None = None,
           include_nondivisible: bool = False) -> VerificationReport:
    """Check one identity over its grid (or the overridden one).

    The bound is ``to`` for a countwise entry and ``order`` for a
    serieswise one, else the entry's default.  Grid evaluation is
    deterministic; mismatches are collected in grid order.  An override the
    identity cannot honor (a negative ``to`` for a countwise entry, an
    ``order`` below 1 for a serieswise one, or a window the series layer
    rejects) comes back as a skipped report over the default grid; any
    other error is a fault and propagates.
    """
    ident = get_identity(identity_id)
    start = time.perf_counter()
    incl = include_nondivisible
    countwise = ident.kind == "countwise"
    bound = to if countwise else order
    if bound is None:
        bound = ident.bound

    def report(status, grid_bound, points=0, ces=(), reason=""):
        return VerificationReport(
            identity=ident.id, grid=ident.grid(grid_bound, incl), status=status,
            points=points, counterexamples=list(ces),
            seconds=time.perf_counter() - start, reason=reason,
        )

    if countwise and bound < 0:
        return report("skipped", ident.bound, reason="to must be non-negative")
    if not countwise and bound < 1:
        return report("skipped", ident.bound, reason="order must be at least 1")
    try:
        if countwise:
            points, ces = _count_grid(ident.points(bound, incl), *ident.sides(bound))
        else:
            points, ces = _series_grid(ident.points(bound, incl))
    except SeriesError as exc:
        return report("skipped", ident.bound, reason=str(exc))
    return report("refuted" if ces else "verified", bound, points, ces)


# ----------------------------------------------------------------------
# explicit bijections
# ----------------------------------------------------------------------


def _check_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if not all(isinstance(p, int) and p >= 1 for p in parts):
        raise ValueError("parts must be positive integers")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be non-increasing")
    return parts


def bijection_prop3(parts, m: int) -> tuple[int, ...]:
    """Remove one copy of the smallest part k and insert the part n + k.

    Maps a partition of n with smallest-part multiplicity >= m to a
    partition of 2n with difference n and multiplicity >= m - 1.
    """
    parts = _check_partition(parts)
    if m < 2:
        raise ValueError("requires m >= 2")
    if not parts:
        raise ValueError("the empty partition has no smallest part")
    k = parts[-1]
    if parts.count(k) < m:
        raise ValueError(f"smallest part {k} occurs fewer than {m} times")
    n = sum(parts)
    return (n + k,) + parts[:-1]


def bijection_prop3_inverse(parts, m: int) -> tuple[int, ...]:
    """Remove the largest part n + k and restore a copy of the smallest k."""
    parts = _check_partition(parts)
    if m < 2:
        raise ValueError("requires m >= 2")
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    total = sum(parts)
    if total % 2:
        raise ValueError("total must be even")
    n = total // 2
    k = parts[-1]
    if parts[0] - k != n:
        raise ValueError("difference between largest and smallest must be n")
    if parts.count(k) < m - 1:
        raise ValueError(f"smallest part {k} occurs fewer than {m - 1} times")
    return parts[1:] + (k,)


def _check_overpartition(parts) -> en.Overpartition:
    parts = tuple((int(v), bool(ov)) for v, ov in parts)
    values = [v for v, _ in parts]
    if not all(v >= 1 for v in values):
        raise ValueError("values must be positive")
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("values must be non-increasing")
    for i, (v, ov) in enumerate(parts):
        if ov and any(v2 == v and ov2 for v2, ov2 in parts[:i]):
            raise ValueError("at most one overlined copy per value")
        if ov and i > 0 and parts[i - 1] == (v, False):
            raise ValueError("the overlined copy must be listed first")
    return parts


def bijection_over1(parts, n: int):
    """Add n to the rightmost smallest part; return both largest-part marks.

    Maps an overpartition of n with smallest-part multiplicity >= 2 to the
    two overpartitions of 2n with difference n that share everything but
    the overline of the new largest part.
    """
    parts = _check_overpartition(parts)
    if sum(v for v, _ in parts) != n:
        raise ValueError(f"parts do not sum to {n}")
    if not parts:
        raise ValueError("the empty overpartition has no smallest part")
    smallest = parts[-1][0]
    if sum(1 for v, _ in parts if v == smallest) < 2:
        raise ValueError("smallest part must occur at least twice")
    # canonical order puts the overlined copy first, so the rightmost
    # smallest part is plain
    assert parts[-1] == (smallest, False)
    rest = parts[:-1]
    big = smallest + n
    return ((big, False),) + rest, ((big, True),) + rest
