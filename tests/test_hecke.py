"""Operator algebra: basis coordinates, augmentation ideal, invariance."""

import random
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylkit.hecke as hecke
from weylkit.charring import CharElt, monomial, weyl_act_simple
from weylkit.demazure import delta_prime, partial, top
from weylkit.hecke import (
    HeckeOp,
    OpExpr,
    in_augmentation_ideal,
    is_ideal_invariant,
    is_weyl_invariant,
    to_basis,
)
from weylkit.repring import orbit_sum, steinberg_basis
from weylkit.rootdata import NAMED_TYPES, build_root_datum
from weylkit.selftest import random_char_elt
from weylkit.weyl import weyl_group

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")
B3 = build_root_datum("B3")
D4 = build_root_datum("D4")


def random_op_expr(rng, rank, max_len=3):
    expr = None
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(["d", "dp", "w", "m"])
        if kind == "m":
            atom = OpExpr.m(random_char_elt(rng, rank, nterms=2, span=1))
        else:
            atom = getattr(OpExpr, kind)(rng.randint(1, rank))
        expr = atom if expr is None else expr * atom
    return expr


def test_rank_one_reflection_identity():
    # s = e^alpha * partial_id + (1 - e^alpha) * partial_s
    group = weyl_group(A1)
    e_alpha = monomial((2,))
    expected = HeckeOp(
        {
            group.identity: e_alpha,
            group.simple(1): CharElt.one(1) - e_alpha,
        }
    )
    assert to_basis(A1, OpExpr.w(1)) == expected


def test_rank_one_bare_difference_identity():
    # delta' = -e^alpha * partial_id + e^alpha * partial_s
    group = weyl_group(A1)
    e_alpha = monomial((2,))
    expected = HeckeOp({group.identity: -e_alpha, group.simple(1): e_alpha})
    assert to_basis(A1, OpExpr.dp(1)) == expected


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_word_operators_are_basis_elements(name):
    datum = build_root_datum(name)
    group = weyl_group(datum)
    one = CharElt.one(datum.rank)
    for w in group:
        expr = OpExpr(())
        for j in w.word:
            expr = expr * OpExpr.d(j)
        assert to_basis(datum, expr) == HeckeOp({w: one})


def test_braid_words_normalize_identically():
    lhs = OpExpr.d(1) * OpExpr.d(2) * OpExpr.d(1)
    rhs = OpExpr.d(2) * OpExpr.d(1) * OpExpr.d(2)
    assert to_basis(A2, lhs) == to_basis(A2, rhs)
    # and repeated letters collapse through idempotence
    assert to_basis(A2, OpExpr.d(1) * OpExpr.d(1)) == to_basis(A2, OpExpr.d(1))


def test_top_is_the_longest_basis_element():
    for datum in (A1, A2, B3, D4):
        group = weyl_group(datum)
        expected = HeckeOp({group.longest: CharElt.one(datum.rank)})
        assert to_basis(datum, OpExpr.top()) == expected


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_to_basis_round_trips(name):
    datum = build_root_datum(name)
    rng = random.Random(f"hecke:{name}")
    for _ in range(6):
        expr = random_op_expr(rng, datum.rank)
        op = to_basis(datum, expr)
        for _ in range(3):
            u = random_char_elt(rng, datum.rank, nterms=3, span=2)
            assert op.apply(datum, u) == expr.apply(datum, u)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "B3", "D4"])
def test_to_basis_certified_on_steinberg_basis(name):
    # both sides are R(G)-linear and the e_v form an R(G)-basis of R(T), so
    # agreement on every e_v proves the operators equal; strict evaluation on
    # all 192 basis elements of D4 takes about seven times as long as
    # non-strict, so D4 alone runs non-strict
    datum = build_root_datum(name)
    strict = False if name == "D4" else None
    rng = random.Random(f"certificate:{name}")
    exprs = [random_op_expr(rng, datum.rank) for _ in range(2)]
    e_1 = monomial((1,) + (0,) * (datum.rank - 1))
    exprs.append(OpExpr.d(datum.rank) * OpExpr.top() * OpExpr.m(e_1))
    basis = steinberg_basis(datum)
    for expr in exprs:
        op = to_basis(datum, expr, strict=strict)
        for w in weyl_group(datum):
            e_v = basis.element_of(w)
            assert op.apply(datum, e_v, strict=strict) == expr.apply(datum, e_v, strict=strict)


def test_multiplication_atom_coordinates():
    # multiplication by v is v * partial_id
    group = weyl_group(A1)
    v = monomial((1,)) + 3 * monomial((-2,))
    assert to_basis(A1, OpExpr.m(v)) == HeckeOp({group.identity: v})


def test_op_expr_applies_rightmost_first():
    u = monomial((1,))
    v = monomial((2,)) - CharElt.one(1)
    mul_then_d = OpExpr.d(1) * OpExpr.m(v)
    d_then_mul = OpExpr.m(v) * OpExpr.d(1)
    from weylkit.demazure import delta

    assert mul_then_d.apply(A1, u) == delta(A1, 1, v * u)
    assert d_then_mul.apply(A1, u) == v * delta(A1, 1, u)
    assert mul_then_d.apply(A1, u) != d_then_mul.apply(A1, u)


def test_op_expr_str():
    expr = OpExpr.d(1) * OpExpr.dp(2) * OpExpr.w(1) * OpExpr.top()
    assert str(expr) == "d[1]*dp[2]*w[1]*top"
    assert str(OpExpr(())) == "id"
    assert str(OpExpr.m(monomial((1, 0)))) == "m[e[1,0]]"


def test_augmentation_ideal_membership():
    for datum in (A1, A2):
        for j in range(1, datum.rank + 1):
            assert in_augmentation_ideal(datum, OpExpr.dp(j))
            assert not in_augmentation_ideal(datum, OpExpr.d(j))
            assert not in_augmentation_ideal(datum, OpExpr.w(j))
        assert in_augmentation_ideal(datum, OpExpr.dp(1) * OpExpr.d(1))
    group = weyl_group(A1)
    u = monomial((1,)) + monomial((0,))
    cancelling = HeckeOp({group.identity: u, group.simple(1): -u})
    assert in_augmentation_ideal(A1, cancelling)
    assert not in_augmentation_ideal(A1, HeckeOp({group.identity: u}))


def test_ideal_invariance_equals_weyl_invariance():
    rng = random.Random("invariance")
    for datum in (A1, A2):
        for _ in range(10):
            u = random_char_elt(rng, datum.rank)
            ideal_ok, ideal_wit = is_ideal_invariant(datum, u)
            weyl_ok, weyl_wit = is_weyl_invariant(datum, u)
            assert ideal_ok == weyl_ok
            assert (ideal_wit is None) == ideal_ok
            assert (weyl_wit is None) == weyl_ok


def test_invariance_witnesses():
    u = monomial((1, 0))
    weyl_ok, weyl_wit = is_weyl_invariant(A2, u)
    assert not weyl_ok
    j, image = weyl_wit
    assert image == weyl_act_simple(A2, j, u) != u
    ideal_ok, ideal_wit = is_ideal_invariant(A2, u)
    assert not ideal_ok
    j, image = ideal_wit
    assert image == delta_prime(A2, j, u)
    assert image


def test_invariant_elements_pass_both_checks():
    inv = orbit_sum(A2, (2, 1))
    assert is_weyl_invariant(A2, inv) == (True, None)
    assert is_ideal_invariant(A2, inv) == (True, None)
    chi = top(A2, monomial((1, 1)))
    assert is_ideal_invariant(A2, chi) == (True, None)


def test_hecke_op_container_api():
    group = weyl_group(A2)
    one = CharElt.one(2)
    op = HeckeOp({group.longest: one, group.identity: 2 * one})
    assert len(op) == 2
    assert [w for w, _ in op.items()] == [group.identity, group.longest]  # by length
    assert op.coefficient(group.identity) == 2 * one
    assert op.coefficient(group.simple(1)) == CharElt.zero()
    assert op.coefficient_sum() == 3 * one
    assert "D[" in str(op)
    payload = op.to_json()
    assert payload["terms"][0]["word"] == []
    assert payload["terms"][1]["word"] == list(group.longest.word)
    # zero coefficients are dropped on construction
    assert not HeckeOp({group.identity: CharElt.zero()})
    assert str(HeckeOp({})) == "0"


def test_hecke_op_apply_matches_manual_sum():
    group = weyl_group(A1)
    from weylkit.demazure import partial

    coeff = monomial((1,))
    op = HeckeOp({group.simple(1): coeff})
    u = monomial((2,)) - monomial((-1,))
    assert op.apply(A1, u) == coeff * partial(A1, group.simple(1), u)


# --- sums against a reference fold by + ---------------------------------------

DATA = {name: build_root_datum(name) for name in NAMED_TYPES}
X = monomial((1, 0))


def _fold(terms):
    return reduce(add, terms, CharElt.zero())


def _small_elts(rank):
    weight = st.tuples(*[st.integers(-1, 1)] * rank)
    return st.lists(st.tuples(weight, st.integers(-2, 2)), max_size=2).map(CharElt)


@st.composite
def _group_op_and_element(draw):
    # with u = 1 every partial_w(u) is 1, so v and -v at two elements cancel
    # completely, in apply and in the coefficient sum
    datum = DATA[draw(st.sampled_from(sorted(DATA)))]
    elements = st.sampled_from(weyl_group(datum).elements)
    coeffs = {w: draw(_small_elts(datum.rank)) for w in draw(st.lists(elements, max_size=3))}
    if draw(st.booleans()):
        v, w, x = draw(_small_elts(datum.rank)), draw(elements), draw(elements)
        if w != x:
            coeffs.update({w: v, x: -v})
        return datum, HeckeOp(coeffs), CharElt.one(datum.rank)
    return datum, HeckeOp(coeffs), draw(_small_elts(datum.rank))


@settings(max_examples=60)
@given(_group_op_and_element())
@example((A2, HeckeOp({weyl_group(A2).identity: X, weyl_group(A2).longest: -X}), CharElt.one(2)))
def test_hecke_op_sums_match_a_fold_by_plus(case):
    datum, op, u = case
    image = op.apply(datum, u)
    assert image == _fold(coeff * partial(datum, w, u) for w, coeff in op.items())
    assert 0 not in image._terms.values()
    total = op.coefficient_sum()
    assert total == _fold(coeff for _, coeff in op.items())
    assert 0 not in total._terms.values()


@st.composite
def _group_and_expression(draw):
    datum = DATA[draw(st.sampled_from(sorted(DATA)))]
    index = st.integers(1, datum.rank)
    atom = st.one_of(
        st.builds(OpExpr.d, index),
        st.builds(OpExpr.dp, index),
        st.builds(OpExpr.w, index),
        st.builds(OpExpr.m, _small_elts(datum.rank)),
    )
    return datum, reduce(OpExpr.__mul__, draw(st.lists(atom, min_size=1, max_size=3)))


def _sum_by_plus(terms):
    # the reference for hecke._sum_by_element
    out = {}
    for w, u in terms:
        out[w] = out.get(w, CharElt.zero()) + u
    return HeckeOp(out)


@settings(max_examples=60)
@given(_group_and_expression())
# s_1 s_1 = 1: the coefficients at s_1 cancel completely
@example((A2, OpExpr.w(1) * OpExpr.w(1)))
@example((B3, OpExpr.dp(2) * OpExpr.m(monomial((0, 1, 0))) * OpExpr.w(2)))
def test_to_basis_matches_a_fold_by_plus(case):
    datum, expr = case
    op = to_basis(datum, expr)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hecke, "_sum_by_element", _sum_by_plus)
        assert op == to_basis(datum, expr)
    assert all(u and 0 not in u._terms.values() for _, u in op.items())
