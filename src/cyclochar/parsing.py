"""Minimal infix parser for exact polynomial expressions.

Grammar (whitespace insignificant, no floating literals by design):

    expression := ('+'|'-')? term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := integer | variable ('^' signed-integer)? | '(' expression ')'

Variables come from the caller-supplied subset of {t, u, x, y}.  A leading
sign on the first term is accepted so symmetric polynomials like
-t^-2 + 2 - t^2 can be written directly.
"""

from __future__ import annotations

from .errors import ParseError, UnknownVariable
from .laurent import BiLaurentPoly, LaurentPoly

ALLOWED_VARIABLES = ("t", "u", "x", "y")

# Most digits of a coefficient: Python refuses to convert a longer int to
# text, so a longer one could not be printed.  Literals past it are refused
# by int() already; products and sums of shorter ones are checked at the end.
MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS

# Most parentheses open at once.  Each level costs three frames of the
# recursive descent, so this keeps deep nesting well inside the
# interpreter's recursion limit and refuses it as a parse error.
MAX_PAREN_DEPTH = 100

_OPS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():  # isdigit() also takes superscripts, which int() refuses
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("floating literals are not allowed", j)
            try:
                out.append(("INT", int(text[i:j]), i))
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal too long", i) from None
            i = j
            continue
        if ch.isalpha():
            out.append(("NAME", ch, i))
            i += 1
            continue
        if ch in _OPS:
            out.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("END", "", n))
    return out


class _Parser:
    """Recursive descent over the token list, building the polynomial with
    the ring operations of LaurentPoly (one variable) or BiLaurentPoly (two);
    integer literals stay ints until they meet a variable."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.ring = LaurentPoly if len(variables) == 1 else BiLaurentPoly
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expression(self):
        kind, val, _ = self.peek()
        negate = kind == "OP" and val == "-"
        if kind == "OP" and val in "+-":
            self.take()
        acc = -self.term() if negate else self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        kind, val, pos = self.take()
        if kind == "INT":
            return val
        if kind == "NAME":
            if val not in self.variables:
                if val in ALLOWED_VARIABLES:
                    raise UnknownVariable(
                        f"variable {val!r} not allowed here (expected one of "
                        f"{', '.join(self.variables)})", pos)
                raise UnknownVariable(f"unknown variable {val!r}", pos)
            exp = 1
            kind2, val2, _ = self.peek()
            if kind2 == "OP" and val2 == "^":
                self.take()
                exp = self._signed_integer()
            return self.ring.term(1, *(exp if v == val else 0 for v in self.variables))
        if kind == "OP" and val == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            inner = self.expression()
            kind2, val2, pos2 = self.take()
            if not (kind2 == "OP" and val2 == ")"):
                raise ParseError("expected ')'", pos2)
            self.depth -= 1
            return inner
        raise ParseError("expected a factor", pos)

    def _signed_integer(self) -> int:
        kind, val, pos = self.take()
        sign = 1
        if kind == "OP" and val in "+-":
            sign = -1 if val == "-" else 1
            kind, val, pos = self.take()
        if kind != "INT":
            raise ParseError("expected an integer exponent", pos)
        return sign * val


def parse(text: str, variables=("t",)) -> LaurentPoly | BiLaurentPoly:
    """Parse an expression over the given variables (1 or 2 of t, u, x, y).

    One variable yields a LaurentPoly, two a BiLaurentPoly keyed in the
    given order.  Raises ParseError (with a 0-based position) on malformed
    input or a coefficient of more than MAX_COEFF_DIGITS digits, and
    UnknownVariable on a name outside the set.
    """
    variables = tuple(variables)
    if not 1 <= len(variables) <= 2:
        raise ValueError("parse supports one or two variables")
    for v in variables:
        if v not in ALLOWED_VARIABLES:
            raise ValueError(f"variable {v!r} not in {ALLOWED_VARIABLES}")
    parser = _Parser(_tokenize(text), variables)
    poly = parser.expression()
    kind, _, pos = parser.peek()
    if kind != "END":
        raise ParseError("trailing input after expression", pos)
    if isinstance(poly, int):
        poly = parser.ring.term(poly)
    if any(abs(c) >= _COEFF_BOUND for c in poly.coeffs.values()):
        raise ParseError(f"a coefficient has more than {MAX_COEFF_DIGITS} digits", 0)
    return poly


def parse_univariate(text: str, variable: str = "t") -> LaurentPoly:
    return parse(text, (variable,))


def parse_bivariate(text: str, variables=("x", "y")) -> BiLaurentPoly:
    return parse(text, variables)
