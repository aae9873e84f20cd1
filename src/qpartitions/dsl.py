"""A small expression language over the q-series primitives.

Grammar (whitespace insignificant, decimal integers):

    expr   := term (("+"|"-") term)*
    term   := unary (("*"|"/") unary)*
    unary  := "-" unary | factor
    factor := atom ("^" int)?
    atom   := int | "q" | "(" expr ")"
            | "poch" "(" mono ";" posint ";" (int|"inf") ")"
            | "qbin" "(" int "," int ")"
    mono   := ["-"] (int "*")? "q" ("^" posint)? | ["-"] int

Per the grammar, "^" binds tighter than unary minus ("-q^2" negates q^2;
write "(-q)^2" for the other reading), and "+ - * /" are left-associative.
"""

from __future__ import annotations

from .qobjects import Monomial, PochhammerError, poch_finite, poch_infinite, qbin
from .record import FrozenRecord
from .series import LaurentSeries, SeriesError


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


# Add, Sub, Mul and Div differ only in their class, which == compares.
class _Binary(FrozenRecord):
    __match_args__ = ("left", "right")

    def __init__(self, left: object, right: object) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


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


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------

_SYMBOLS = set("+-*/^();,")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, expected_desc: str):
        tok = self.peek()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise DslSyntaxError(
                f"got {got!r}", tok[2], tok[3], expected=(expected_desc,)
            )
        return self.advance()

    def fail(self, expected):
        tok = self.peek()
        got = tok[1] or "end of input"
        raise DslSyntaxError(f"got {got!r}", tok[2], tok[3], expected=expected)

    # grammar rules ------------------------------------------------------

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.factor()

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("INT", "integer")
        return sign * int(tok[1])

    def plain_int(self) -> int:
        return int(self.expect("INT", "integer")[1])

    def posint(self) -> int:
        tok = self.expect("INT", "positive integer")
        value = int(tok[1])
        if value < 1:
            raise DslSyntaxError(
                f"got {value}", tok[2], tok[3], expected=("positive integer",)
            )
        return value

    def atom(self):
        tok = self.peek()
        if tok[0] == "INT":
            return IntLit(int(self.advance()[1]))
        if tok[0] == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if tok[0] == "NAME":
            name = tok[1]
            if name == "q":
                self.advance()
                return Q()
            if name == "poch":
                self.advance()
                self.expect("(", "'('")
                param = self.mono()
                self.expect(";", "';'")
                step = self.posint()
                self.expect(";", "';'")
                length = self.poch_length()
                self.expect(")", "')'")
                return Poch(param, step, length)
            if name == "qbin":
                self.advance()
                self.expect("(", "'('")
                upper = self.signed_int()
                self.expect(",", "','")
                lower = self.signed_int()
                self.expect(")", "')'")
                return Qbin(upper, lower)
        self.fail(("integer", "'q'", "'('", "'poch'", "'qbin'"))

    def poch_length(self) -> int | None:
        tok = self.peek()
        if tok[0] == "NAME" and tok[1] == "inf":
            self.advance()
            return None
        if tok[0] == "INT":
            return self.plain_int()
        self.fail(("integer", "'inf'"))

    def mono(self) -> Monomial:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        coeff = 1
        if tok[0] == "INT":
            coeff = self.plain_int()
            if self.peek()[0] == "*":
                self.advance()
                return self._mono_q(sign * coeff)
            return Monomial(sign * coeff, 0) if coeff else Monomial.zero()
        if tok[0] == "NAME" and tok[1] == "q":
            return self._mono_q(sign)
        self.fail(("integer", "'q'"))

    def _mono_q(self, coeff: int) -> Monomial:
        tok = self.expect("NAME", "'q'")
        if tok[1] != "q":
            raise DslSyntaxError(f"got {tok[1]!r}", tok[2], tok[3], expected=("'q'",))
        exp = 1
        if self.peek()[0] == "^":
            self.advance()
            exp = self.posint()
        return Monomial.zero() if coeff == 0 else Monomial(coeff, exp)


def parse(text: str):
    """Parse an expression into its AST; raises DslSyntaxError with position."""
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def _ev(node, w: int) -> LaurentSeries:
    # Contract: the returned window reaches at least w.  Children are
    # re-evaluated at larger windows when negative exponents would
    # otherwise erode the product window.
    if isinstance(node, IntLit):
        return LaurentSeries.monomial(node.value, 0, w)
    if isinstance(node, Q):
        return LaurentSeries.monomial(1, 1, w)
    if isinstance(node, Neg):
        return _ev(node.operand, w).neg()
    if isinstance(node, (Add, Sub)):
        a = _ev(node.left, w)
        b = _ev(node.right, w)
        return a.add(b) if isinstance(node, Add) else a.sub(b)
    if isinstance(node, Mul):
        a = _ev(node.left, w)
        b = _ev(node.right, w)
        if b.min_exp < 0:
            a = _ev(node.left, w - b.min_exp)
        if a.min_exp < 0:
            b = _ev(node.right, w - a.min_exp)
        return a.mul(b)
    if isinstance(node, Div):
        return _div(node, node.left, node.right, w)
    if isinstance(node, Pow):
        return _pow(node, w)
    if isinstance(node, Poch):
        try:
            if node.length is None:
                return poch_infinite(node.param, node.step, w)
            return poch_finite(node.param, node.step, node.length).truncate(w)
        except (PochhammerError, SeriesError) as exc:
            raise DslEvalError(f"cannot evaluate {format_ast(node)}: {exc}") from exc
    if isinstance(node, Qbin):
        try:
            return qbin(node.upper, node.lower).truncate(w)
        except (SeriesError, ValueError) as exc:
            raise DslEvalError(f"cannot evaluate {format_ast(node)}: {exc}") from exc
    raise TypeError(f"not an AST node: {node!r}")


def _invert(num_node, den_node, w_target: int):
    # inverse of the denominator, windowed so a product with a series of
    # min_exp >= 0 keeps w_target coefficients; num_node is only used for
    # the error message when the denominator is not a unit.
    den = _ev(den_node, max(w_target, 1))
    v = den.valuation()
    if v is None:
        raise DslEvalError(
            f"cannot evaluate {format_ast(den_node)}: divisor vanishes on the "
            "computed window"
        )
    order = max(w_target + v, 1)
    if v + order > den.trunc_order:
        den = _ev(den_node, v + order)
    try:
        return den.inverse(order)
    except SeriesError as exc:
        raise DslEvalError(f"cannot evaluate {format_ast(den_node)}: {exc}") from exc


def _div(node, left, right, w: int) -> LaurentSeries:
    a = _ev(left, w)
    inv = _invert(node, right, w - min(a.min_exp, 0))
    if inv.min_exp < 0:
        a = _ev(left, w - inv.min_exp)
    return a.mul(inv)


def _pow(node: Pow, w: int) -> LaurentSeries:
    e = node.exponent
    if e == 0:
        return LaurentSeries.one(w)
    if e > 0:
        base = _ev(node.base, w)
        if base.min_exp < 0:
            base = _ev(node.base, w - (e - 1) * base.min_exp)
        return _power(base, e)
    inv = _invert(node, node.base, w)
    k = -e
    if k > 1 and inv.min_exp < 0:
        inv = _invert(node, node.base, w - (k - 1) * inv.min_exp)
    return _power(inv, k)


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

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt(node, min_prec: int) -> str:
    p = _prec(node)
    if isinstance(node, IntLit):
        body = str(node.value)
    elif isinstance(node, Q):
        body = "q"
    elif isinstance(node, Neg):
        body = "-" + _fmt(node.operand, _PREC_NEG)
    elif isinstance(node, Add):
        body = _fmt(node.left, _PREC_ADD) + "+" + _fmt(node.right, _PREC_ADD + 1)
    elif isinstance(node, Sub):
        body = _fmt(node.left, _PREC_ADD) + "-" + _fmt(node.right, _PREC_ADD + 1)
    elif isinstance(node, Mul):
        body = _fmt(node.left, _PREC_MUL) + "*" + _fmt(node.right, _PREC_MUL + 1)
    elif isinstance(node, Div):
        body = _fmt(node.left, _PREC_MUL) + "/" + _fmt(node.right, _PREC_MUL + 1)
    elif isinstance(node, Pow):
        body = _fmt(node.base, _PREC_ATOM) + "^" + str(node.exponent)
    elif isinstance(node, Poch):
        length = "inf" if node.length is None else str(node.length)
        body = f"poch({node.param};{node.step};{length})"
    elif isinstance(node, Qbin):
        body = f"qbin({node.upper},{node.lower})"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if p < min_prec:
        return f"({body})"
    return body


def format_ast(node) -> str:
    """Canonical text; parse(format_ast(x)) is structurally equal to x."""
    return _fmt(node, 0)
