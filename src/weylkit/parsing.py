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

A power u^n is checked before it is taken: its degree (largest absolute
weight coordinate), its number of terms and the bit length of its
coefficients, each bounded from the support box and the coefficients of u,
must stay within MAX_POWER_DEGREE, MAX_POWER_TERMS and MAX_POWER_BITS, or
the parser raises ParseError. A product u*v is checked the same way for
the bit length of its coefficients, against MAX_POWER_BITS.
"""

from __future__ import annotations

from typing import NamedTuple

from .charring import CharElt, monomial
from .errors import ParseError
from .hecke import OpExpr

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
        tok = self.expect("INT", "an integer")
        value = int(tok.text)
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
        return tuple(coords)

    # character grammar

    def char_expr(self) -> CharElt:
        negate = self.accept("-") is not None
        out = self.char_term()
        if negate:
            out = -out
        while True:
            if self.accept("+"):
                out = out + self.char_term()
            elif self.accept("-"):
                out = out - self.char_term()
            else:
                return out

    def char_term(self) -> CharElt:
        out = self.char_factor()
        while True:
            star = self.accept("*")
            if star is None:
                return out
            factor = self.char_factor()
            _check_product_bits(out, factor, star.pos)
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
            return CharElt.one(self.rank) * int(tok.text)
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

    def op_expr(self) -> OpExpr:
        out = self.op_atom()
        while self.accept("*"):
            out = out * self.op_atom()
        return out

    def op_atom(self) -> OpExpr:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.fail("an operator ('d', 'dp', 'w', 'top', or 'm')")
        if tok.text in ("d", "dp", "w"):
            self.advance()
            self.expect("[", "'['")
            index_tok = self.expect("INT", "a simple-root index")
            j = int(index_tok.text)
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
    for what, value, cap in (
        ("degree", degree, MAX_POWER_DEGREE),
        ("terms", terms, MAX_POWER_TERMS),
        ("coefficient bits", bits, MAX_POWER_BITS),
    ):
        if value > cap:
            raise ParseError(
                f"power at position {pos} is too large: its {what} may reach {value}, over the limit {cap}"
            )


def _check_product_bits(a: CharElt, b: CharElt, pos: int) -> None:
    """Raise ParseError if a coefficient of a*b may pass MAX_POWER_BITS.

    A coefficient of a*b sums c*d over pairs of terms whose weights add up
    to one weight; each term of a meets at most one term of b there, so it
    is at most (sum of |c| over a) * (largest |d| over b) in absolute value,
    and likewise with a and b swapped.
    """
    abs_a = [abs(c) for _, c in a.items()] or [0]
    abs_b = [abs(d) for _, d in b.items()] or [0]
    bits = min(sum(abs_a) * max(abs_b), sum(abs_b) * max(abs_a)).bit_length()
    if bits > MAX_POWER_BITS:
        raise ParseError(
            f"product at position {pos} is too large: its coefficient bits may reach {bits}, "
            f"over the limit {MAX_POWER_BITS}"
        )


def parse_char_expression(text: str, rank: int) -> CharElt:
    parser = _Parser(text, rank)
    out = parser.char_expr()
    parser.finish("expression")
    return out


def parse_operator_expression(text: str, rank: int) -> OpExpr:
    parser = _Parser(text, rank)
    out = parser.op_expr()
    parser.finish("operator expression")
    return out


def parse_weight(text: str, rank: int) -> tuple[int, ...]:
    parser = _Parser(text, rank)
    opener = parser.accept("[")
    coords = [parser.signed_int()]
    while parser.accept(","):
        coords.append(parser.signed_int())
    if opener is not None:
        parser.expect("]", "']'")
    parser.finish("weight")
    if len(coords) != rank:
        raise ParseError(f"expected {rank} coordinates, got {len(coords)}")
    return tuple(coords)
