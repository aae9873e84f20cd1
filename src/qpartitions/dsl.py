"""A small expression language over the q-series primitives.

Grammar (whitespace insignificant, decimal ASCII integers):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | atom ("^" int)?
    atom   := int | "q" | "(" expr ")"
            | "poch" "(" mono ";" posint ";" (int|"inf") ")"
            | "qbin" "(" int "," int ")"
    mono   := ["-"] (int "*")? "q" ("^" posint)? | ["-"] int

Per the grammar, "^" binds tighter than unary minus ("-q^2" negates q^2;
write "(-q)^2" for the other reading), and "+ - * /" are left-associative.
Integers and names are ASCII: a non-ASCII letter or digit is an
unexpected character, a syntax error.

An expression evaluates at any order >= 1 on the window [min_exp, order).
Finite ``poch`` and ``qbin`` leaves are built on the window that is read,
never as their exact polynomials, and the factors of a product are
evaluated on windows widened by the other factors' negative exponents.
A divisor whose lowest term lies past its window is evaluated again on
doubled windows, up to 64 past it, until its valuation shows.
"""

from __future__ import annotations

import re

from .qobjects import Monomial, _qbin_window, poch_finite_window, poch_infinite
from .record import FrozenRecord
from .series import LaurentSeries


class DslSyntaxError(ValueError):
    """Parse failure with 1-based position and the expected-token set."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        suffix = ""
        if self.expected:
            suffix = f" (expected {', '.join(sorted(self.expected))})"
        super().__init__(f"syntax error at line {line}, column {col}: {message}{suffix}")


class DslEvalError(ValueError):
    """Evaluation failure naming the offending subexpression."""


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


class IntLit(FrozenRecord):
    __match_args__ = ("value",)

    def __init__(self, value: int) -> None:
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative literals are spelled with Neg")


class Q(FrozenRecord):
    pass


class Neg(FrozenRecord):
    __match_args__ = ("operand",)

    def __init__(self, operand: object) -> None:
        object.__setattr__(self, "operand", operand)


# Add, Sub, Mul and Div differ only in their class, which == compares, and
# in their symbol and precedence (1 sums, 2 products), which the parser and
# the formatter both read from here.
class _Binary(FrozenRecord):
    __match_args__ = ("left", "right")

    def __init__(self, left: object, right: object) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    symbol, prec = "+", 1


class Sub(_Binary):
    symbol, prec = "-", 1


class Mul(_Binary):
    symbol, prec = "*", 2


class Div(_Binary):
    symbol, prec = "/", 2


class Pow(FrozenRecord):
    __match_args__ = ("base", "exponent")

    def __init__(self, base: object, exponent: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


class Poch(FrozenRecord):
    __match_args__ = ("param", "step", "length")

    def __init__(self, param: Monomial, step: int, length: int | None) -> None:
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "length", length)  # None means the infinite product
        self.__post_init__()

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("poch step must be positive")
        if self.length is not None and self.length < 0:
            raise ValueError("poch length must be non-negative")


class Qbin(FrozenRecord):
    __match_args__ = ("upper", "lower")

    def __init__(self, upper: int, lower: int) -> None:
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)


_BINARY = {cls.symbol: cls for cls in (Add, Sub, Mul, Div)}


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------

# An ASCII integer, an ASCII name, or any one character.
_LEXEME = re.compile(r"([0-9]+)|([A-Za-z]+)|(.)", re.S)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    for digits, name, ch in _LEXEME.findall(text):
        if digits or name:
            tokens.append(("INT" if digits else "NAME", digits or name, line, col))
        elif ch == "\n":
            line, col = line + 1, 0
        elif ch in "+-*/^();,":
            tokens.append((ch, ch, line, col))
        elif not ch.isspace():
            raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
        col += len(digits or name or ch)
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        # called only on a token already checked, so never on EOF
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        if tok[0] != kind or text not in (None, tok[1]):
            return False
        self.advance()
        return True

    def expect(self, kind: str, *expected: str, text: str | None = None):
        tok = self.peek()
        if not self.accept(kind, text):
            self.fail(expected)
        return tok

    def fail(self, expected):
        tok = self.peek()
        got = tok[1] or "end of input"
        raise DslSyntaxError(f"got {got!r}", tok[2], tok[3], expected=expected)

    # grammar rules ------------------------------------------------------

    def parse(self):
        node = self.expr(1)
        if self.peek()[0] != "EOF":
            self.fail(("operator", "end of input"))
        return node

    def expr(self, min_prec: int):
        # precedence climbing; the right operand binds tighter, so every
        # binary operator is left-associative
        node = self.unary()
        while (op := _BINARY.get(self.peek()[0])) and op.prec >= min_prec:
            self.advance()
            node = op(node, self.expr(op.prec + 1))
        return node

    def unary(self):
        if self.accept("-"):
            return Neg(self.unary())
        node = self.atom()
        if self.accept("^"):
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("INT", "integer")[1])

    def posint(self) -> int:
        tok = self.expect("INT", "positive integer")
        value = int(tok[1])
        if value < 1:
            raise DslSyntaxError(
                f"got {value}", tok[2], tok[3], expected=("positive integer",)
            )
        return value

    def atom(self):
        kind, name = self.peek()[:2]
        if kind == "INT":
            return IntLit(int(self.advance()[1]))
        if self.accept("("):
            node = self.expr(1)
            self.expect(")", "')'")
            return node
        if kind != "NAME" or name not in ("q", "poch", "qbin"):
            self.fail(("integer", "'q'", "'('", "'poch'", "'qbin'"))
        self.advance()
        if name == "q":
            return Q()
        self.expect("(", "'('")
        if name == "poch":
            param = self.mono()
            self.expect(";", "';'")
            step = self.posint()
            self.expect(";", "';'")
            if self.accept("NAME", "inf"):
                node = Poch(param, step, None)
            else:
                node = Poch(param, step, int(self.expect("INT", "integer", "'inf'")[1]))
        else:
            upper = self.signed_int()
            self.expect(",", "','")
            node = Qbin(upper, self.signed_int())
        self.expect(")", "')'")
        return node

    def mono(self) -> Monomial:
        sign = -1 if self.accept("-") else 1
        kind, name = self.peek()[:2]
        if kind == "INT":
            coeff = sign * int(self.advance()[1])
            if not self.accept("*"):
                return Monomial(coeff, 0) if coeff else Monomial.zero()
        elif kind == "NAME" and name == "q":
            coeff = sign
        else:
            self.fail(("integer", "'q'"))
        self.expect("NAME", "'q'", text="q")
        exp = self.posint() if self.accept("^") else 1
        return Monomial(coeff, exp) if coeff else Monomial.zero()


def parse(text: str):
    """Parse an expression into its AST; raises DslSyntaxError with position."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def _ev(node, w: int) -> LaurentSeries:
    # Contract: the returned window reaches at least w.  q needs a window
    # past its exponent, so it reaches at least 2.
    match node:
        case IntLit(value):
            return LaurentSeries.monomial(value, 0, w)
        case Q():
            return LaurentSeries.monomial(1, 1, max(w, 2))
        case Neg(operand):
            return _ev(operand, w).neg()
        case Add(left, right):
            return _ev(left, w).add(_ev(right, w))
        case Sub(left, right):
            return _ev(left, w).sub(_ev(right, w))
        case Mul(left, right):
            a, b = _widened(lambda v: _ev(left, v), lambda v: _ev(right, v), w)
            return a.mul(b)
        case Div(left, right):
            a, b = _widened(lambda v: _ev(left, v), lambda v: _invert(right, v), w)
            return a.mul(b)
        case Pow(_, 0):
            return LaurentSeries.one(w)
        case Pow(base, e):
            factor = _ev if e > 0 else _invert
            x, _ = _widened(lambda v: factor(base, v), None, w, abs(e) - 1)
            return _power(x, abs(e))
        case Poch(param, step, None):
            return _guarded(node, poch_infinite, param, step, w)
        case Poch(param, step, length):
            return _guarded(node, poch_finite_window, param, step, length, w)
        case Qbin(upper, lower):
            return _guarded(node, _qbin_window, upper, lower, w)
    raise TypeError(f"not an AST node: {node!r}")


def _widened(left, right, w: int, copies: int = 1):
    # The factors of left * right^copies, each a function from a window to
    # a series, on windows that keep the product's window reaching w: each
    # factor's window is widened by the other factors' negative min_exp.
    # With right None the factors are copies + 1 copies of left (a power);
    # a min_exp does not depend on the window, so the first one serves.
    a = left(w)
    b = a if right is None else right(w - min(a.min_exp, 0))
    if copies * b.min_exp < 0:
        a = left(w - copies * b.min_exp)
    return a, b


def _guarded(node, build, *args) -> LaurentSeries:
    # a leaf's or an inverse's failure, blamed on its subexpression
    try:
        return build(*args)
    except ValueError as exc:
        raise DslEvalError(f"cannot evaluate {format_ast(node)}: {exc}") from exc


def _invert(node, w: int) -> LaurentSeries:
    # inverse of node's value, windowed so a product with a series of
    # min_exp >= 0 keeps w coefficients.  A divisor whose lowest term lies
    # past its window reads as zero there, so a zero divisor is evaluated
    # again on doubled windows until its valuation shows, up to w + 64.
    den = _ev(node, w)
    v = den.valuation()
    wide = w
    while v is None and wide < w + 64:
        wide = min(2 * wide, w + 64)
        den = _ev(node, wide)
        v = den.valuation()
    if v is None:
        raise DslEvalError(
            f"cannot evaluate {format_ast(node)}: divisor vanishes on the computed window"
        )
    order = max(w + v, 1)
    if v + order > den.trunc_order:
        den = _ev(node, v + order)
    return _guarded(node, den.inverse, order)


def _power(base: LaurentSeries, e: int) -> LaurentSeries:
    # Square-and-multiply, e >= 1.  For a base window [m, W) the product
    # base^a * base^b has window [(a+b)m, W + (a+b-1)m) however e = a + b is
    # split, so this is the repeated product, window and all, in at most
    # 2 log2(e) products.
    out = None
    while True:
        if e & 1:
            out = base if out is None else out.mul(base)
        e >>= 1
        if not e:
            return out
        base = base.mul(base)


def evaluate(ast, order: int) -> LaurentSeries:
    """Evaluate an AST into a series with window ending exactly at ``order``."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return _ev(ast, order).truncate(order)


def eval_text(text: str, order: int) -> LaurentSeries:
    """Parse and evaluate in one step."""
    return evaluate(parse(text), order)


# ----------------------------------------------------------------------
# canonical formatting
# ----------------------------------------------------------------------


def _fmt(node, min_prec: int) -> str:
    # Parenthesize a node that binds looser than min_prec; precedences are
    # the binary operators' 1 and 2, then 3 negation, 4 powers, 5 atoms.
    prec = 5
    match node:
        case IntLit(value):
            body = str(value)
        case Q():
            body = "q"
        case Neg(operand):
            body, prec = "-" + _fmt(operand, 3), 3
        case _Binary(left, right):
            prec = node.prec
            body = _fmt(left, prec) + node.symbol + _fmt(right, prec + 1)
        case Pow(base, exponent):
            body, prec = f"{_fmt(base, 5)}^{exponent}", 4
        case Poch(param, step, length):
            body = f"poch({param};{step};{'inf' if length is None else length})"
        case Qbin(upper, lower):
            body = f"qbin({upper},{lower})"
        case _:
            raise TypeError(f"not an AST node: {node!r}")
    return f"({body})" if prec < min_prec else body


def format_ast(node) -> str:
    """Canonical text; parse(format_ast(x)) is structurally equal to x."""
    return _fmt(node, 0)
