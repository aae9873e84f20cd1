import random

import pytest

from qpartitions import dsl
from qpartitions.dsl import (
    Add,
    Div,
    DslEvalError,
    DslSyntaxError,
    IntLit,
    Mul,
    Neg,
    Poch,
    Pow,
    Q,
    Qbin,
    eval_text,
    evaluate,
    format_ast,
    parse,
)
from qpartitions.qobjects import Monomial
from qpartitions.series import LaurentSeries


def test_parse_examples():
    assert parse("1/poch(q;1;inf)") == Div(IntLit(1), Poch(Monomial(1, 1), 1, None))
    assert parse("q^-2 * (1+q)") == Mul(Pow(Q(), -2), Add(IntLit(1), Q()))
    assert parse("qbin(4,2)") == Qbin(4, 2)
    assert parse("-q^2") == Neg(Pow(Q(), 2))
    assert parse("poch(-2*q^3;2;5)") == Poch(Monomial(-2, 3), 2, 5)
    assert parse("poch(0;1;inf)") == Poch(Monomial.zero(), 1, None)


def test_parse_errors_carry_position():
    with pytest.raises(DslSyntaxError) as err:
        parse("poch(q;;3)")
    assert err.value.line == 1 and err.value.col == 8

    with pytest.raises(DslSyntaxError) as err:
        parse("1+")
    assert err.value.col == 3

    with pytest.raises(DslSyntaxError) as err:
        parse("(1+q")
    assert "')'" in err.value.expected

    with pytest.raises(DslSyntaxError) as err:
        parse("1+q\n* *2")
    assert err.value.line == 2

    with pytest.raises(DslSyntaxError):
        parse("poch(q;0;3)")  # step must be positive

    with pytest.raises(DslSyntaxError):
        parse("2 @ 3")


def test_trailing_tokens_rejected():
    with pytest.raises(DslSyntaxError):
        parse("1+q q")


def test_eval_examples():
    s = eval_text("1/poch(q;1;inf)", 8)
    assert [s.coeff(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    s = eval_text("qbin(4,2)", 10)
    assert [s.coeff(n) for n in range(5)] == [1, 1, 2, 1, 1]
    assert all(s.coeff(n) == 0 for n in range(5, 10))

    s = eval_text("(1-q)/(1-q)", 10)
    assert s.coeff(0) == 1 and all(s.coeff(n) == 0 for n in range(1, 10))

    s = eval_text("q^-2*(1+q)", 6)
    assert s.coeff(-2) == 1 and s.coeff(-1) == 1
    assert all(s.coeff(n) == 0 for n in range(0, 6))

    s = eval_text("poch(q;1;3)", 7)
    assert [s.coeff(n) for n in range(7)] == [1, -1, -1, 0, 1, 1, -1]


def test_eval_division_errors():
    with pytest.raises(DslEvalError) as err:
        eval_text("1/(2+q)", 5)
    assert "2+q" in str(err.value)
    with pytest.raises(DslEvalError):
        eval_text("1/(q-q)", 5)
    with pytest.raises(DslEvalError) as err:
        eval_text("1/poch(2;1;inf)", 5)  # non-truncating infinite product
    assert "poch(2;1;inf)" in str(err.value)


def test_eval_window_reaches_order():
    # negative exponents must not erode the requested window
    s = eval_text("q^-3 * 1/poch(q;1;inf)", 10)
    assert s.trunc_order == 10
    # cross-check against the partition series shifted by hand
    p = eval_text("1/poch(q;1;inf)", 13)
    assert all(s.coeff(n - 3) == p.coeff(n) for n in range(13))


def test_format_examples():
    for text in ("1/poch(q;1;inf)", "q^-2*(1+q)", "qbin(4,2)", "-q^2",
                 "poch(-q;1;3)", "poch(2*q^3;2;inf)", "(1+q)^3"):
        ast = parse(text)
        assert parse(format_ast(ast)) == ast


from dsl_gen import rand_ast as _rand_ast


def test_format_round_trip_random():
    rng = random.Random(424242)
    for _ in range(500):
        ast = _rand_ast(rng, rng.randint(0, 4))
        text = format_ast(ast)
        assert parse(text) == ast, text


def test_eval_distributes_over_structure():
    rng = random.Random(31337)
    order = 9
    checked = 0
    for _ in range(300):
        x = _rand_ast(rng, 2)
        y = _rand_ast(rng, 2)
        try:
            ex = evaluate(x, order)
            ey = evaluate(y, order)
            esum = evaluate(Add(x, y), order)
            eprod = evaluate(Mul(x, y), order)
        except DslEvalError:
            continue
        checked += 1
        direct = ex.add(ey)
        assert esum.eq_to(direct, min(esum.trunc_order, direct.trunc_order))
        direct = ex.mul(ey)
        w = min(eprod.trunc_order, direct.trunc_order)
        assert eprod.eq_to(direct, w)
        eneg = evaluate(Neg(x), order)
        assert eneg.eq_to(ex.neg(), min(eneg.trunc_order, ex.trunc_order))
    assert checked > 150


def test_eval_window_soundness_random():
    # evaluating the same expression at two orders must agree on the
    # smaller window, and the returned window must end exactly at order
    rng = random.Random(90210)
    checked = 0
    for _ in range(300):
        ast = _rand_ast(rng, rng.randint(0, 3))
        try:
            small = evaluate(ast, 7)
            big = evaluate(ast, 16)
        except DslEvalError:
            continue
        checked += 1
        assert small.trunc_order == 7
        assert big.trunc_order == 16
        assert big.eq_to(small, 7)
    assert checked > 150


def test_eval_total_at_large_order():
    s = eval_text("poch(q;1;inf)/poch(q^2;2;inf)", 200)
    t = eval_text("poch(q;2;inf)", 200)
    assert s.eq_to(t, 200)


def _repeated(base, e):
    out = base
    for _ in range(e - 1):
        out = out.mul(base)
    return out


@pytest.mark.parametrize("text", ["1-q+2*q^2", "q^-1+3", "poch(q;1;inf)", "qbin(5,2)"])
def test_power_matches_repeated_product(monkeypatch, text):
    # square-and-multiply gives the repeated product's window and coefficients
    base = parse(text)
    for e in [*range(1, 13), *range(-12, 0)]:
        fast = dsl._ev(Pow(base, e), 15)
        with monkeypatch.context() as m:
            m.setattr(dsl, "_power", _repeated)
            slow = dsl._ev(Pow(base, e), 15)
        assert fast == slow, e


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = LaurentSeries.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentSeries, "mul", counted)
    # at most 2 ceil(log2 e) products; the benchmark's cubes and squares
    # keep their 2 and 1
    for text, products, support in (("q^1000", 20, []), ("q^-1000", 20, [-1000]),
                                    ("poch(q;1;inf)^3", 2, None),
                                    ("poch(-q;1;inf)^2", 1, None)):
        calls.clear()
        out = eval_text(text, 5)
        assert len(calls) <= products, text
        if support is None:
            assert len(calls) == products, text
        else:
            exps = range(out.min_exp, out.trunc_order)
            assert [e for e in exps if out.coeff(e)] == support, text
