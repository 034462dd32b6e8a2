"""Operator algebra: basis coordinates, augmentation ideal, invariance."""

import random

import pytest

from weylkit.charring import CharElt, monomial, weyl_act_simple
from weylkit.demazure import delta_prime, top
from weylkit.hecke import (
    HeckeOp,
    OpExpr,
    apply,
    in_augmentation_ideal,
    is_ideal_invariant,
    is_weyl_invariant,
    to_basis,
)
from weylkit.repring import orbit_sum, steinberg_basis
from weylkit.rootdata import build_root_datum
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
            assert apply(datum, op, u) == expr.apply(datum, u)


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
