"""Text grammars for the CLI: Laurent-polynomial expressions and operator
words, parsed by recursive descent over a shared token stream.

Character expressions:

    expr   := ["-"] term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ["^" sint]
    atom   := INT | "e" "[" sint ("," sint)* "]" | "(" expr ")"

Operator expressions (the rightmost factor acts first):

    opexpr := opatom ("*" opatom)*
    opatom := "d" "[" INT "]" | "dp" "[" INT "]" | "w" "[" INT "]"
            | "top" | "m" "[" expr "]"

Weight lists accept "2", "1,0", or "[1,0]". All integers are decimal; the
number of coordinates must match the rank of the group in use.

The parser bounds what it builds, and raises ParseError past a bound.
The degree of an element is its largest absolute weight coordinate. Every
weight written in e[...] or given to parse_weight has degree at most
MAX_POWER_DEGREE. A power u^n is checked before it is taken: its degree,
its number of terms and the bit length of its coefficients, each bounded
from the support box and the coefficients of u, must stay within
MAX_POWER_DEGREE, MAX_POWER_TERMS and MAX_POWER_BITS. A product u*v is
checked for its degree, at most the sum of the factors' degrees, and for
the bit length of its coefficients, and so is the product of the
multipliers m[...] composed in one operator expression, together with the
element the operator is applied to when one is given. A sum u+v or u-v is
checked at the coefficients it changes. An integer literal longer than the
interpreter converts (sys.get_int_max_str_digits()) is a ParseError too.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .charring import CharElt, _add_scaled, monomial
from .errors import ParseError
from .hecke import OpExpr
from .rootdata import Weight

MAX_POWER_DEGREE = 10_000
MAX_POWER_TERMS = 1_000
MAX_POWER_BITS = 10_000


class Token(NamedTuple):
    kind: str  # "INT" | "NAME" | one of "[],+-*^()" | "END"
    text: str
    pos: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "[],+-*^()":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, rank: int):
        self.tokens = _tokenize(text)
        self.rank = rank
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "END" else "end of input"
            raise ParseError(
                f"expected {what or kind!r} at position {tok.pos}, found {found}"
            )
        return self.advance()

    def fail(self, what: str) -> ParseError:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "END" else "end of input"
        return ParseError(f"expected {what} at position {tok.pos}, found {found}")

    # shared pieces

    def signed_int(self) -> int:
        neg = self.accept("-")
        value = _int(self.expect("INT", "an integer"))
        return -value if neg else value

    def int_list(self, opener: Token) -> tuple[int, ...]:
        coords = [self.signed_int()]
        while self.accept(","):
            coords.append(self.signed_int())
        self.expect("]", "']'")
        if len(coords) != self.rank:
            raise ParseError(
                f"expected {self.rank} coordinates at position {opener.pos}, got {len(coords)}"
            )
        _check_size("weight", opener.pos, "degree", max(map(abs, coords)), MAX_POWER_DEGREE)
        return tuple(coords)

    # character grammar

    def char_expr(self) -> CharElt:
        scale = -1 if self.accept("-") is not None else 1
        out: dict[Weight, int] = {}
        _add_scaled(out, self.char_term()._terms.items(), scale)
        while True:
            sign = self.accept("+") or self.accept("-")
            if sign is None:
                return CharElt._raw(out)
            term = self.char_term()
            _add_scaled(out, term._terms.items(), 1 if sign.kind == "+" else -1)
            # the sum changes only the coefficients on the support of term
            changed = max((abs(out.get(mu, 0)) for mu in term._terms), default=0)
            _check_size("sum", sign.pos, "coefficient bits", changed.bit_length(), MAX_POWER_BITS)

    def char_term(self) -> CharElt:
        out = self.char_factor()
        while True:
            star = self.accept("*")
            if star is None:
                return out
            factor = self.char_factor()
            _check_product(_sizes(out), _sizes(factor), star.pos)
            out = out * factor

    def char_factor(self) -> CharElt:
        base = self.char_atom()
        caret = self.accept("^")
        if caret:
            n = self.signed_int()
            if n == 0:
                # also for a zero base, whose rank CharElt.__pow__ cannot know
                return CharElt.one(self.rank)
            _check_power_size(base, abs(n), caret.pos)
            return base**n
        return base

    def char_atom(self) -> CharElt:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return CharElt.one(self.rank) * _int(tok)
        if tok.kind == "NAME" and tok.text == "e":
            self.advance()
            opener = self.expect("[", "'['")
            return monomial(self.int_list(opener))
        if tok.kind == "(":
            self.advance()
            out = self.char_expr()
            self.expect(")", "')'")
            return out
        raise self.fail("an integer, 'e[...]', or '('")

    # operator grammar

    def op_expr(self, operand: CharElt | None) -> OpExpr:
        # every multiplier of one word multiplies the result, whatever acts
        # between them, and so does the operand
        scale = None if operand is None else _sizes(operand)
        out = OpExpr(())
        pos = self.peek().pos
        while True:
            atom = self.op_atom()
            elt = atom.atoms[0].elt  # an atom is a one-atom word
            if elt is not None:
                sizes = _sizes(elt)
                scale = sizes if scale is None else _check_product(scale, sizes, pos)
            out = out * atom
            star = self.accept("*")
            if star is None:
                return out
            pos = star.pos

    def op_atom(self) -> OpExpr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail("an operator ('d', 'dp', 'w', 'top', or 'm')")
        if tok.text in ("d", "dp", "w"):
            self.advance()
            self.expect("[", "'['")
            index_tok = self.expect("INT", "a simple-root index")
            j = _int(index_tok)
            if not 1 <= j <= self.rank:
                raise ParseError(
                    f"index {j} out of range 1..{self.rank} at position {index_tok.pos}"
                )
            self.expect("]", "']'")
            return getattr(OpExpr, tok.text)(j)
        if tok.text == "top":
            self.advance()
            return OpExpr.top()
        if tok.text == "m":
            self.advance()
            self.expect("[", "'['")
            elt = self.char_expr()
            self.expect("]", "']'")
            return OpExpr.m(elt)
        raise self.fail("an operator ('d', 'dp', 'w', 'top', or 'm')")

    def finish(self, what: str) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(
                f"unexpected trailing {tok.text!r} after {what} at position {tok.pos}"
            )


def _check_power_size(base: CharElt, n: int, pos: int) -> None:
    """Raise ParseError if base^n would pass a size cap (module docstring).

    Every weight of base^n lies in n times the support box of base, and is a
    sum of n support weights, so the terms number at most the smaller of
    the box's lattice points and the multisets of size n; every coefficient
    is at most (sum of |c|)^n in absolute value. The multiset count is taken
    only when the degree is within its cap, which bounds n there.
    """
    support = base.support()
    if not support:
        return
    lo = [min(coords) for coords in zip(*support)]
    hi = [max(coords) for coords in zip(*support)]
    degree = n * max(max(map(abs, lo)), max(map(abs, hi)))
    terms = 1
    for a, b in zip(lo, hi):
        terms *= n * (b - a) + 1
    if terms > MAX_POWER_TERMS and degree <= MAX_POWER_DEGREE:
        from math import comb

        terms = min(terms, comb(len(support) + n - 1, n))
    bits = n * (sum(abs(c) for _, c in base.items()) - 1).bit_length()
    _check_size("power", pos, "degree", degree, MAX_POWER_DEGREE)
    _check_size("power", pos, "terms", terms, MAX_POWER_TERMS)
    _check_size("power", pos, "coefficient bits", bits, MAX_POWER_BITS)


def _int(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        # the tokenizer takes any Unicode digit, and int() refuses some
        # (such as '²') and any run longer than its limit
        limit = sys.get_int_max_str_digits()
        if limit and len(tok.text) > limit:
            raise ParseError(
                f"integer at position {tok.pos} has {len(tok.text)} digits, over the limit {limit}"
            ) from None
        raise ParseError(f"{tok.text!r} at position {tok.pos} is not a decimal integer") from None


def _sizes(u: CharElt) -> tuple[int, int, int]:
    """The sum and the largest of |c| over the terms of u, and its degree."""
    abs_c = [abs(c) for _, c in u.items()] or [0]
    degree = max((abs(x) for mu, _ in u.items() for x in mu), default=0)
    return sum(abs_c), max(abs_c), degree


def _check_product(a: tuple[int, int, int], b: tuple[int, int, int], pos: int) -> tuple[int, int, int]:
    """Raise ParseError if a coefficient of a*b may pass MAX_POWER_BITS, or
    its degree MAX_POWER_DEGREE.

    a and b are the _sizes of the factors, and bounds on the same sizes of
    a*b are returned, so that products of several factors can be checked.

    A coefficient of a*b sums c*d over pairs of terms whose weights add up
    to one weight; each term of a meets at most one term of b there, so it
    is at most (sum of |c| over a) * (largest |d| over b) in absolute value,
    and likewise with a and b swapped. The sum of |coefficients| of a*b is
    at most the product of the sums, and its degree at most the sum of the
    degrees.
    """
    (sum_a, max_a, deg_a), (sum_b, max_b, deg_b) = a, b
    largest = min(sum_a * max_b, sum_b * max_a)
    _check_size("product", pos, "coefficient bits", largest.bit_length(), MAX_POWER_BITS)
    _check_size("product", pos, "degree", deg_a + deg_b, MAX_POWER_DEGREE)
    return sum_a * sum_b, largest, deg_a + deg_b


def _check_size(what: str, pos: int, quantity: str, value: int, cap: int) -> None:
    """Raise ParseError if value, a bound on the quantity of the element
    built at pos, is over cap."""
    if value > cap:
        raise ParseError(
            f"{what} at position {pos} is too large: its {quantity} may reach {value}, over the limit {cap}"
        )


def parse_char_expression(text: str, rank: int) -> CharElt:
    parser = _Parser(text, rank)
    out = parser.char_expr()
    parser.finish("expression")
    return out


def parse_operator_expression(text: str, rank: int, operand: CharElt | None = None) -> OpExpr:
    """The operator of text; with operand, the element it will be applied to,
    its multipliers are bounded together with the operand's coefficients."""
    parser = _Parser(text, rank)
    out = parser.op_expr(operand)
    parser.finish("operator expression")
    return out


def parse_weight(text: str, rank: int) -> tuple[int, ...]:
    parser = _Parser(text, rank)
    start = parser.peek().pos
    opener = parser.accept("[")
    coords = [parser.signed_int()]
    while parser.accept(","):
        coords.append(parser.signed_int())
    if opener is not None:
        parser.expect("]", "']'")
    parser.finish("weight")
    if len(coords) != rank:
        raise ParseError(f"expected {rank} coordinates, got {len(coords)}")
    _check_size("weight", start, "degree", max(map(abs, coords)), MAX_POWER_DEGREE)
    return tuple(coords)
