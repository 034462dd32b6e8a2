"""Expression grammars: round trips and error reporting."""

import random

import pytest

from weylkit.charring import CharElt, monomial
from weylkit.errors import NotDivisible, ParseError
from weylkit.hecke import OpExpr
from weylkit.parsing import (
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    parse_char_expression,
    parse_operator_expression,
    parse_weight,
)
from weylkit.selftest import random_char_elt


def test_char_literals():
    one = CharElt.one(1)
    assert parse_char_expression("e[0]", 1) == one
    assert parse_char_expression("3", 1) == 3 * one
    assert parse_char_expression("-e[1]", 1) == -monomial((1,))
    assert parse_char_expression("2*e[1,0] - e[-1,2]", 2) == (
        2 * monomial((1, 0)) - monomial((-1, 2))
    )
    assert parse_char_expression("0", 2) == CharElt.zero()


def test_char_operator_precedence():
    x = monomial((1,))
    assert parse_char_expression("e[1]+e[0]*e[2]", 1) == x + monomial((2,))
    assert parse_char_expression("(e[1]+e[0])*e[2]", 1) == monomial((3,)) + monomial((2,))
    assert parse_char_expression("e[1]^2*e[1]", 1) == monomial((3,))
    assert parse_char_expression("e[1]^-2", 1) == monomial((-2,))
    assert parse_char_expression("(e[1]+e[-1])^2", 1) == (x + x**-1) ** 2
    assert parse_char_expression("1 - 2 - 3", 1) == -4 * CharElt.one(1)


def test_char_round_trip_on_random_elements():
    rng = random.Random("parse")
    for rank in (1, 2, 3):
        for _ in range(20):
            u = random_char_elt(rng, rank, nterms=5, span=4)
            assert parse_char_expression(str(u), rank) == u
    assert parse_char_expression(str(CharElt.zero()), 2) == CharElt.zero()


def test_whitespace_is_free():
    assert parse_char_expression(" e[ 1 , 0 ] +  2 * e[0,0] ", 2) == parse_char_expression(
        "e[1,0]+2*e[0,0]", 2
    )


def test_zeroth_power_is_the_unit_of_the_rank():
    for text in ("0^0", "(e[1,0]-e[1,0])^0", "(e[1,0]+3)^0"):
        assert parse_char_expression(text, 2) == CharElt.one(2)


def test_power_size_guard():
    x = monomial((1,))
    one = CharElt.one(1)
    assert parse_char_expression(f"e[1]^{MAX_POWER_DEGREE}", 1) == x**MAX_POWER_DEGREE
    assert parse_char_expression(f"e[1]^-{MAX_POWER_DEGREE}", 1) == x**-MAX_POWER_DEGREE
    assert parse_char_expression(f"1^{10 * MAX_POWER_BITS}", 1) == one
    assert len(parse_char_expression(f"(1+e[1])^{MAX_POWER_TERMS - 1}", 1)) == MAX_POWER_TERMS
    # the support box of this power has 201^4 points, but it has 101 terms
    assert len(parse_char_expression("(e[1,1,1,1]+e[-1,-1,-1,-1])^100", 4)) == 101
    # a product's coefficients are bounded by sum |c| times max |d|, either way
    # round: 2^9999 has MAX_POWER_BITS bits, so it may be scaled but not squared
    assert parse_char_expression("2^9999*e[1]*(e[0]-e[1])", 1) == 2**9999 * (x - x**2)
    for text, rank, what in [
        (f"e[1]^{MAX_POWER_DEGREE + 1}", 1, "degree"),
        (f"e[-2]^-{MAX_POWER_DEGREE}", 1, "degree"),
        (f"(1+e[1])^{MAX_POWER_TERMS}", 1, "terms"),
        ("(e[1,0]+e[0,1]+e[-1,-1])^100", 2, "terms"),
        ("(e[1,0,0]+e[0,1,0]+e[0,0,1]+e[-1,-1,-1])^100", 3, "terms"),
        (f"2^{MAX_POWER_BITS + 1}", 1, "coefficient bits"),
        (f"(3*e[1])^{MAX_POWER_DEGREE}", 1, "coefficient bits"),
        ("2^9999*2^9999", 1, "product at position 6 .* coefficient bits"),
        ("(2^9999*e[1]+2^9999*e[-1])*e[0]*(e[1]+e[-1])", 1, "product at position 31"),
        # a sum is checked at the coefficients it changes
        ("2^9999+2^9999", 1, "sum at position 6 .* 10001"),
        ("e[1]-2^9999*e[0]-2^9999", 1, "sum at position 16"),
    ]:
        with pytest.raises(ParseError, match=what):
            parse_char_expression(text, rank)


def test_weight_coordinates_are_bounded():
    top, over = MAX_POWER_DEGREE, MAX_POWER_DEGREE + 1
    assert parse_char_expression(f"e[{top},-{top}]", 2) == monomial((top, -top))
    assert parse_char_expression(f"e[5000]*e[-{top - 5000}]", 1) == monomial((0,))
    assert parse_weight(f"[-{top},0]", 2) == (-top, 0)
    small = monomial((5000,))
    assert parse_operator_expression("m[e[2500]]*d[1]*m[e[2500]]", 1, operand=small).atoms[0].elt == monomial((2500,))
    for text, fragment in [
        (f"e[0]+e[-{over}]", "weight at position 6 is too large: its degree may reach 10001"),
        # a product's degree is bounded by the sum of its factors' degrees
        (f"e[5000]*e[-{over - 5000}]", "product at position 7 .* degree may reach 10001"),
        (f"(e[5000]+1)*(e[5001]-1)", "product at position 11 .* degree"),
    ]:
        with pytest.raises(ParseError, match=fragment):
            parse_char_expression(text, 1)
    with pytest.raises(ParseError, match="weight at position 1 .* 10001"):
        parse_weight(f" [0,{over}]", 2)
    for text in ("m[e[2500]]*d[1]*m[e[2501]]", f"m[e[{over - 5000}]]"):
        with pytest.raises(ParseError, match="product at position .* degree"):
            parse_operator_expression(text, 1, operand=small)


def test_negative_power_of_sum_propagates_not_divisible():
    with pytest.raises(NotDivisible):
        parse_char_expression("(e[1]+e[0])^-1", 1)


@pytest.mark.parametrize(
    "text,rank,fragment",
    [
        ("e[1", 1, "']'"),
        ("e[1,2]", 1, "expected 1 coordinates"),
        ("e[1]", 2, "expected 2 coordinates"),
        ("@", 1, "unexpected character '@' at position 0"),
        ("e[1] e[2]", 1, "unexpected trailing"),
        ("e[]", 1, "an integer"),
        ("", 1, "an integer, 'e[...]', or '('"),
        ("e[1]+", 1, "end of input"),
        ("(e[1]", 1, "')'"),
        # int() refuses more digits than its limit (4300 by default) and some
        # Unicode digits that the tokenizer accepts
        ("e[0]+" + "1" * 5000, 1, "integer at position 5 has 5000 digits, over the limit"),
        ("e[²]", 1, "'²' at position 2 is not a decimal integer"),
    ],
)
def test_char_errors_carry_position_and_expectation(text, rank, fragment):
    with pytest.raises(ParseError) as err:
        parse_char_expression(text, rank)
    assert fragment in str(err.value)


def test_operator_parse():
    expr = parse_operator_expression("d[1]*dp[2]*w[1]*top*m[e[1,0]]", 2)
    assert isinstance(expr, OpExpr)
    assert [a.kind for a in expr.atoms] == ["d", "dp", "w", "top", "m"]
    assert expr.atoms[0].index == 1
    assert expr.atoms[1].index == 2
    assert expr.atoms[4].elt == monomial((1, 0))


def test_operator_round_trip():
    for text in ["d[1]", "d[1]*d[2]*d[1]", "top*m[e[1,1] - e[0,0]]", "dp[2]*w[1]"]:
        expr = parse_operator_expression(text, 2)
        assert parse_operator_expression(str(expr), 2) == expr


@pytest.mark.parametrize(
    "text,rank,fragment",
    [
        ("q[1]", 1, "an operator"),
        ("d[0]", 1, "index 0 out of range 1..1"),
        ("d[3]", 2, "index 3 out of range 1..2"),
        ("d[1]*", 1, "an operator"),
        ("d[1] d[1]", 1, "unexpected trailing"),
        ("d[x]", 1, "a simple-root index"),
        ("m[d[1]]", 1, "an integer, 'e[...]', or '('"),
        ("d[" + "1" * 5000 + "]", 1, "integer at position 2 has 5000 digits"),
        # the multipliers of one word are bounded as one product, also when
        # other operators act between them
        ("m[2^9999]*m[2^9999]", 1, "product at position 9 is too large"),
        ("m[2^9999]*d[1]*w[1]*m[2^9999]", 1, "product at position 19 is too large"),
        ("m[2^5000]*top*m[2^4000]*m[2^4000]", 1, "product at position 23 is too large"),
    ],
)
def test_operator_errors(text, rank, fragment):
    with pytest.raises(ParseError) as err:
        parse_operator_expression(text, rank)
    assert fragment in str(err.value)


def test_sums_within_the_bound():
    x = monomial((1,))
    assert parse_char_expression("2^9999*e[1]+2^9999*e[-1]", 1) == 2**9999 * (x + x**-1)
    assert parse_char_expression("2^9999-1+1", 1) == 2**9999 * CharElt.one(1)


def test_operator_multipliers_bounded_with_the_operand():
    small, big = monomial((1,)) - monomial((-1,)), monomial((0,), 2**9999)
    assert parse_operator_expression("m[2^9999]*d[1]", 1, operand=small).atoms[0].elt == big
    assert parse_operator_expression("d[1]", 1, operand=big * big) == OpExpr.d(1)
    for text, fragment in [("m[2^9999]", "product at position 0"), ("d[1]*m[1]*m[2]", "product at position 9")]:
        with pytest.raises(ParseError, match=fragment):
            parse_operator_expression(text, 1, operand=big)


def test_operator_multipliers_within_the_bound():
    # 2^9999 has MAX_POWER_BITS bits: it may be composed with small multipliers
    expr = parse_operator_expression("m[2^9999]*d[1]*m[e[1]-1]*m[-1]", 1)
    assert [a.kind for a in expr.atoms] == ["m", "d", "m", "m"]
    assert parse_operator_expression("m[2^5000]*m[2^4999]", 1).atoms[1].elt == monomial((0,), 2**4999)


def test_parse_weight_forms():
    assert parse_weight("2", 1) == (2,)
    assert parse_weight("-2", 1) == (-2,)
    assert parse_weight("1,0", 2) == (1, 0)
    assert parse_weight("[1,0]", 2) == (1, 0)
    assert parse_weight("[ -1 , 3 ]", 2) == (-1, 3)


@pytest.mark.parametrize(
    "text,rank",
    [("[1,0", 2), ("1,0", 3), ("1,0,0", 2), ("[]", 1), ("1 2", 2), ("", 1)],
)
def test_parse_weight_errors(text, rank):
    with pytest.raises(ParseError):
        parse_weight(text, rank)
