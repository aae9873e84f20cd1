"""Value semantics of the package's record classes.

The expected strings, equalities and errors were recorded from the
``dataclasses`` implementation these classes replaced, so any drift in
construction, ``==``, ``hash``, ``repr`` or immutability shows here.
"""

import pytest

from qpartitions.closed_forms import bracket_polynomial
from qpartitions.dsl import Add, Div, IntLit, Mul, Neg, Poch, Pow, Q, Qbin, Sub, parse
from qpartitions.identities import Identity, VerificationReport
from qpartitions.qobjects import Monomial
from qpartitions.record import Record
from qpartitions.series import LaurentSeries, WindowError


def _grid(n, incl):
    return f"n<={n}"


def _points(n, incl):
    return range(n)


# class -> (every field of one value, those of a value differing in one field)
SAMPLES = {
    LaurentSeries: ((0, (1, 2), 2, False), (0, (1, 2), 2, True)),
    Monomial: ((-1, 2), (-1, 3)),
    Identity: (("x", "countwise", "s", 5, _grid, _points, None),
               ("x", "countwise", "s", 6, _grid, _points, None)),
    VerificationReport: (("x", "g", "verified", 3, [], 0.5), ("x", "g", "verified", 4, [], 0.5)),
    IntLit: ((1,), (2,)),
    Q: ((), None),
    Neg: ((Q(),), (IntLit(1),)),
    Add: ((Q(), IntLit(1)), (Q(), IntLit(2))),
    Sub: ((Q(), IntLit(1)), (Q(), IntLit(2))),
    Mul: ((Q(), IntLit(1)), (Q(), IntLit(2))),
    Div: ((Q(), IntLit(1)), (Q(), IntLit(2))),
    Pow: ((Q(), 2), (Q(), 3)),
    Poch: ((Monomial(1, 1), 1, None), (Monomial(1, 1), 1, 4)),
    Qbin: ((5, 2), (5, 3)),
}
FROZEN = [cls for cls in SAMPLES if cls is not VerificationReport]


def _leaf_classes(cls):
    for sub in cls.__subclasses__():
        yield from _leaf_classes(sub) if sub.__subclasses__() else (sub,)


def test_every_record_class_is_sampled():
    assert set(_leaf_classes(Record)) == set(SAMPLES)
    assert len(SAMPLES) == 14


@pytest.mark.parametrize(
    "value, text",
    [
        (Monomial(-1, 2), "Monomial(coeff=-1, exp=2)"),
        (LaurentSeries(0, (1, 2), 2),
         "LaurentSeries(min_exp=0, coeffs=(1, 2), trunc_order=2, exact=False)"),
        (bracket_polynomial(2),
         "LaurentSeries(min_exp=-1, coeffs=(-1, 2), trunc_order=1, exact=True)"),
        (parse("poch(-q;1;inf)^2+1"),
         "Add(left=Pow(base=Poch(param=Monomial(coeff=-1, exp=1), step=1, length=None), "
         "exponent=2), right=IntLit(value=1))"),
        (parse("qbin(5,2)*q-3/(1-q)"),
         "Sub(left=Mul(left=Qbin(upper=5, lower=2), right=Q()), right=Div(left=IntLit(value=3), "
         "right=Sub(left=IntLit(value=1), right=Q())))"),
        (parse("-q"), "Neg(operand=Q())"),
        (Q(), "Q()"),
        (VerificationReport("x", "g", "verified", 3, [], 0.5),
         "VerificationReport(identity='x', grid='g', status='verified', points=3, "
         "counterexamples=[], seconds=0.5, reason='')"),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


def test_identity_repr_names_every_field():
    text = repr(Identity("x", "countwise", "s", 5, _grid, _points))
    assert text.startswith("Identity(id='x', kind='countwise', statement='s', bound=5, grid=<function")
    assert text.endswith(", sides=None)")


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    args, other_args = SAMPLES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if other_args is not None:
        c = cls(*other_args)
        assert a != c and not a == c
    assert a != args and a.__eq__(args) is NotImplemented
    if cls is VerificationReport:
        with pytest.raises(TypeError, match="unhashable type: 'VerificationReport'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(args))
        assert len({a, b}) == 1


def test_same_fields_different_class_are_unequal():
    nodes = [cls(Q(), IntLit(1)) for cls in (Add, Sub, Mul, Div)]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j)
            if i != j:
                assert x.__eq__(y) is NotImplemented
    assert Neg(Q()) != Add(Q(), Q()) and IntLit(1) != Qbin(1, 0)
    assert Monomial(1, 2) != LaurentSeries(0, (1, 2), 2)


def test_keyword_and_default_construction():
    assert Monomial(3) == Monomial(coeff=3, exp=0) == Monomial(exp=0, coeff=3)
    assert LaurentSeries(min_exp=0, coeffs=(1,), trunc_order=1) == LaurentSeries(0, (1,), 1)
    assert LaurentSeries(0, (1,), 1).exact is False
    assert LaurentSeries(0, (1,), 1, exact=True) == LaurentSeries.polynomial((1,))
    ident = Identity(id="x", kind="countwise", statement="s", bound=5, grid=_grid, points=_points)
    assert ident.sides is None and ident == Identity("x", "countwise", "s", 5, _grid, _points, None)
    report = VerificationReport(identity="x", grid="g", status="skipped", points=0,
                                counterexamples=[], seconds=0.0)
    assert report.reason == ""
    assert Poch(param=Monomial(1, 1), step=2, length=None).step == 2
    assert Add(left=Q(), right=IntLit(0)) == Add(Q(), IntLit(0))
    assert Pow(base=Q(), exponent=2).exponent == 2
    with pytest.raises(TypeError):
        Monomial()
    with pytest.raises(TypeError):
        Q(1)
    with pytest.raises(TypeError):
        Monomial(1, 2, 3)
    with pytest.raises(TypeError):
        Monomial(1, expo=2)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_fields(cls):
    value = cls(*SAMPLES[cls][0])
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        value.x = 1
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del value.x


def test_frozen_field_message_names_the_field():
    m = Monomial(1, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'coeff'"):
        m.coeff = 2
    with pytest.raises(AttributeError, match="cannot delete field 'exp'"):
        del m.exp
    assert m == Monomial(1, 1)


def test_verification_report_is_mutable():
    report = VerificationReport("x", "g", "verified", 3, [], 0.5)
    report.seconds = 1.5
    report.reason = "r"
    assert (report.seconds, report.reason) == (1.5, "r")
    assert report != VerificationReport("x", "g", "verified", 3, [], 0.5)


@pytest.mark.parametrize(
    "make, exc, message",
    [
        (lambda: Monomial(2, -1), ValueError, "monomial exponent must be non-negative"),
        (lambda: Monomial(0, 1), ValueError, "the zero monomial is written with exp 0"),
        (lambda: IntLit(-1), ValueError, "negative literals are spelled with Neg"),
        (lambda: Poch(Monomial(1, 1), 0, None), ValueError, "poch step must be positive"),
        (lambda: Poch(Monomial(1, 1), 1, -1), ValueError, "poch length must be non-negative"),
        (lambda: LaurentSeries(2, (), 1), WindowError, "min_exp 2 exceeds trunc_order 1"),
        (lambda: LaurentSeries(0, (1,), 2), WindowError,
         r"coefficient storage \(1\) does not match window \[0, 2\)"),
        (lambda: VerificationReport("x", "g", "refuted", 3, [], 0.5), ValueError,
         "refuted reports must carry counterexamples"),
        (lambda: VerificationReport("x", "g", "verified", 3, [{}], 0.5), ValueError,
         "verified reports cannot carry counterexamples"),
    ],
)
def test_validation(make, exc, message):
    with pytest.raises(exc, match=f"^{message}$"):
        make()

