"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Each test prints a single ``criterion N PASS`` line (visible with -s / -rA);
a pytest failure on any test is the corresponding FAIL line.  Criteria 8-10
additionally print the harness reports they are required to emit.
"""

import random
import time

import qpartitions as qp
from qpartitions.cli import main as cli_main
from qpartitions.dsl import parse, format_ast
from qpartitions.identities import verify
from qpartitions.series import LaurentSeries

from generators import gen_overpartitions, gen_partitions


def test_criterion_01_two_term_formula():
    """a_2(n) = 2p(n) - p(n+1): n <= 200 by series, n <= 60 by enumeration."""
    start = time.perf_counter()
    gf = qp.gf_a_m_sum(2, 202)
    for n in range(1, 201):
        assert gf.coeff(n) == qp.a2_via_p(n), n
    qp.count_a(1, 60)  # one sweep warms every n <= 60
    for n in range(1, 61):
        assert qp.count_a(2, n) == qp.a2_via_p(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"criterion 1 PASS: two-term formula, 200 series + 60 oracle points "
          f"({elapsed:.2f}s)")


def test_criterion_02_fixed_difference_equivalents():
    """a_2(n) = p(2n,n), a_m(n) = a_{m-1}(2n,n), and the explicit bijection."""
    start = time.perf_counter()
    for n in range(1, 26):
        assert qp.count_a(2, n) == qp.count_p_fixed_diff(2 * n, n), n
    for m in range(2, 6):
        for n in range(1, 26):
            assert qp.count_a(m, n) == qp.count_a_diff(m - 1, 2 * n, n), (m, n)
    for m in range(2, 5):
        for n in range(1, 21):
            sources = list(gen_partitions(n, smallest_mult_min=m))
            images = [qp.bijection_prop3(p, m) for p in sources]
            assert all(
                qp.bijection_prop3_inverse(img, m) == src
                for src, img in zip(sources, images)
            )
            targets = list(gen_partitions(2 * n, smallest_mult_min=m - 1, exact_diff=n))
            assert sorted(images) == sorted(targets), (m, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"criterion 2 PASS: fixed-difference equivalents + bijection coverage "
          f"({elapsed:.2f}s)")


def test_criterion_03_general_multiplicity_formula():
    """The Q-corrected p-combination under at_least/empty=1, m <= 6, n <= 60."""
    assert qp.count_Q(2, 4, 6, "at_least") == 1  # empty target counts one
    assert qp.aG1_via_p(3, 6) == 22 - 15 - 5 + 3 - 1 == 4
    assert qp.count_a(3, 6) == 4
    for m in range(2, 7):
        for n in range(1, 61):
            assert qp.aG1_via_p(m, n) == qp.count_a(m, n), (m, n)
    print("criterion 3 PASS: Q-corrected formula, m <= 6, n <= 60")


def test_criterion_04_three_and_four_term_formulas():
    """The a_3 and a_4 p-combinations, exact to n <= 120, spot-checked."""
    gf3 = qp.gf_a_m_sum(3, 122)
    gf4 = qp.gf_a_m_sum(4, 122)
    for n in range(1, 121):
        assert gf3.coeff(n) == qp.a3_via_p(n), n
        assert gf4.coeff(n) == qp.a4_via_p(n), n
    assert qp.a3_via_p(4) == 1 == qp.count_a(3, 4)
    assert qp.a4_via_p(5) == 1 == qp.count_a(4, 5)
    print("criterion 4 PASS: a_3/a_4 combinations to n = 120 + enumeration spots")


def test_criterion_05_summation_and_bracket_forms():
    """Both GF constructions equal enumerated counts at order 60 and agree."""
    for m in range(1, 7):
        s = qp.gf_a_m_sum(m, 60)
        for n in range(1, 60):
            assert s.coeff(n) == qp.count_a(m, n), (m, n)
    for m in range(2, 7):
        s = qp.gf_a_m_sum(m, 60)
        t = qp.gf_a_m_thm(m, 60)
        for n in range(1, 60):
            assert t.coeff(n) == s.coeff(n), (m, n)
    b3 = qp.bracket_polynomial(3)
    assert dict(b3.terms()) == {0: 3, -1: -1, -2: -2, -3: 1}
    print("criterion 5 PASS: summation/bracket constructions at order 60")


def test_criterion_06_fixed_difference_closed_form():
    """Closed form equals enumerated fixed-difference counts, m < l <= 8."""
    for l in range(2, 9):
        for m in range(1, l):
            gf = qp.gf_a_m_diff(m, l, 51)
            for n in range(1, 51):
                assert gf.coeff(n) == qp.count_a_diff(m, n, l), (m, l, n)
    # m = 1 is the plain fixed-difference count (no multiplicity constraint)
    for l in range(2, 9):
        gf = qp.gf_a_m_diff(1, l, 51)
        for n in range(1, 51):
            assert gf.coeff(n) == qp.count_p_fixed_diff(n, l), (l, n)
    print("criterion 6 PASS: fixed-difference closed form, 1 <= m < l <= 8, n <= 50")


def test_criterion_07_series_transformations():
    """The four series primitives verify over their monomial grids."""
    for ident in ("cauchy", "cauchy_cor", "heine", "heine2", "qbinthm"):
        report = verify(ident)
        assert report.status == "verified", (ident, report.counterexamples[:3])
    print("criterion 7 PASS: cauchy/cauchy_cor/heine/heine2/qbinthm verified")


def test_criterion_08_overpartitions():
    """Overpartition counts, the doubled map, and the u-bar comparison."""
    gf = qp.gf_pbar(5)
    assert [gf.coeff(n) for n in range(5)] == [1, 2, 4, 8, 14]
    assert list(gen_overpartitions(3)) == [
        ((3, False),),
        ((3, True),),
        ((2, False), (1, False)),
        ((2, True), (1, False)),
        ((2, False), (1, True)),
        ((2, True), (1, True)),
        ((1, False), (1, False), (1, False)),
        ((1, True), (1, False), (1, False)),
    ]
    for n in range(1, 17):
        assert 2 * qp.count_abar(2, n) == qp.count_pbar_diff(2 * n, n), n
    for m in range(2, 5):
        for n in range(1, 15):
            assert 2 * qp.count_abar(m, n) == qp.count_abar_diff(m - 1, 2 * n, n)
    assert qp.count_ubar(3) == 2
    assert qp.count_ubar(4) == 0
    for n in range(1, 21):
        lhs = qp.count_abar(2, n)
        rhs = 2 * qp.count_pbar(n) - qp.count_pbar(n + 1) + qp.count_ubar(n + 1)
        assert lhs == rhs, n
    report = verify("ubar_gf")
    assert report.status in ("verified", "refuted")
    if report.status == "refuted":
        first = report.counterexamples[0]
        print(f"criterion 8 NOTE: u-bar GF disagrees first at {first}")
    else:
        print("criterion 8 NOTE: u-bar GF matches the u-bar oracle to order 25")
    assert report.points == 25
    print("criterion 8 PASS: overpartition results + u-bar report emitted")


def test_criterion_09_regular_partitions():
    """2-regular three-term formula, divisible/non-divisible swaps, GFs."""
    for n in range(1, 61):
        assert qp.count_areg(2, 2, n) == (
            qp.count_breg(2, n) + qp.count_breg(2, n + 1) - qp.count_breg(2, n + 2)
        ), n
    report = verify("reg_div")
    assert report.status == "verified", report.counterexamples[:3]
    dropped = verify("reg_div", include_nondivisible=True)
    assert dropped.status == "refuted"
    first = dropped.counterexamples[0]
    assert first["params"] == {"m": 2, "l": 2, "n": 3}
    assert (first["lhs"], first["rhs"]) == (1, 0)
    print(f"criterion 9 NOTE: without the divisibility hypothesis the swap "
          f"fails first at {first['params']} (lhs 1, rhs 0)")
    for n in range(1, 32, 2):
        assert qp.count_areg(2, 2, n) == qp.count_breg_diff(2, 2 * n + 1, n + 1), n
    assert verify("reg_nondiv").status == "verified"
    for l in (2, 3, 4, 5):
        gf = qp.gf_breg(l, 41)
        for n in range(1, 41):
            assert gf.coeff(n) == qp.count_breg(l, n), (l, n)
    for l in (2, 3, 4):
        for m in (1, 2, 3):
            gf = qp.gf_areg(m, l, 41)
            for n in range(1, 41):
                assert gf.coeff(n) == qp.count_areg(m, l, n), (m, l, n)
    for m in (1, 2, 3):
        assert qp.gf_areg_l2(m, 41).eq_to(qp.gf_areg(m, 2, 41), 41)
    print("criterion 9 PASS: regular-partition results + documented refutation")


def test_criterion_10_difference_decomposition():
    """The minimum-part decomposition of p(2n, n), as displayed, n <= 60.

    The displayed right-hand side exceeds the count by exactly 1 for n = 2
    and every odd n (its leading 1 stands for the empty-middle partition
    (3n/2, n/2), which only exists for even n >= 4).  The harness documents
    that refutation; the identity holds on all even n >= 4.
    """
    report = verify("remark7", to=60)
    assert report.status == "refuted"
    bad = {ce["params"]["n"] for ce in report.counterexamples}
    assert bad == {1, 2} | set(range(3, 61, 2))
    assert all(ce["rhs"] - ce["lhs"] == 1 for ce in report.counterexamples)
    for n in range(4, 61, 2):
        assert qp.remark7_rhs(n) == qp.count_p_fixed_diff(2 * n, n), n
    print("criterion 10 NOTE: decomposition as displayed is off by one for "
          "n = 2 and odd n; exact on even n >= 4 (verified to 60)")
    alt = qp.gf_abar_m_alt(2, 21)
    coeffs = [alt.coeff(n) for n in range(1, 21)]
    print(f"criterion 10 NOTE: distinct-overline-convention GF, first 20 "
          f"coefficients: {coeffs}")
    assert len(coeffs) == 20 and coeffs[1] == 1  # starts at q^2 for m = 2
    print("criterion 10 PASS: decomposition characterized + alternative GF emitted")


def test_criterion_11_property_suites():
    """Ring laws, inverse law, decomposition, qbin recurrences, parity,
    DSL round trip, CLI exit codes."""
    rng = random.Random(1618)

    def rand_series():
        lo = rng.randint(-4, 3)
        length = rng.randint(0, 8)
        return LaurentSeries(
            lo, tuple(rng.randint(-5, 5) for _ in range(length)), lo + length
        )

    for _ in range(500):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a.add(b) == b.add(a)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.pos_part().add(a.nonpos_part()) == a

    for _ in range(500):
        v = rng.randint(-3, 3)
        n = rng.randint(1, 9)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-4, 4) for _ in range(n + 4)]
        u = LaurentSeries.from_coeffs(coeffs, min_exp=v)
        prod = u.mul(u.inverse(n))
        assert prod.eq_to(LaurentSeries.one(prod.trunc_order), prod.trunc_order)

    for a in range(1, 13):
        for b in range(a + 1):
            lhs = qp.qbin(a, b)
            w = lhs.trunc_order + b + 1
            assert lhs.eq_to(qp.qbin(a, a - b), w)
            rec = qp.qbin(a - 1, b - 1).add(qp.qbin(a - 1, b).shift(b))
            assert lhs.eq_to(rec, w)

    for n in range(1, 31):
        assert qp.count_pbar(n) % 2 == 0, n

    from dsl_gen import rand_ast

    for _ in range(500):
        ast = rand_ast(rng, rng.randint(0, 4))
        assert parse(format_ast(ast)) == ast

    # exit-code contract: 0 verified, 1 refuted, 2 usage/evaluation error
    assert cli_main(["seq", "p", "--from", "0", "--to", "3"]) == 0
    assert cli_main(["verify", "remark7", "--to", "4"]) == 1
    assert cli_main(["series", "1/(2+q)", "--order", "4"]) == 2

    print("criterion 11 PASS: property suites, exit codes")
