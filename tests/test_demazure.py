"""Divided-difference operators: worked values, laws, routes."""

import random

import pytest

from weylkit import demazure
from weylkit.charring import CharElt, monomial, weyl_act, weyl_act_simple
from weylkit.demazure import (
    alternating_quotient,
    delta,
    delta_prime,
    partial,
    partial_prime,
    top,
)
from weylkit.errors import InternalInvariantError, WordMismatch
from weylkit.repring import weyl_dimension
from weylkit.rootdata import NAMED_TYPES, build_root_datum
from weylkit.selftest import random_char_elt
from weylkit.weyl import weyl_group

A1 = build_root_datum("A1")
X = monomial((1,))
ONE = CharElt.one(1)


def test_rank_one_worked_values():
    # delta(x) = x + 1/x, delta(x^2) = x^2 + 1 + x^-2
    assert delta(A1, 1, X) == X + X**-1
    assert delta(A1, 1, X**2) == X**2 + ONE + X**-2
    assert delta(A1, 1, X**-1) == CharElt.zero()
    assert delta(A1, 1, X**-2) == -ONE  # e^-2 -> -(1)
    # the bare variant: delta'(x) = x, delta'(1/x) = -x
    assert delta_prime(A1, 1, X) == X
    assert delta_prime(A1, 1, X**-1) == -X
    assert delta_prime(A1, 1, ONE) == CharElt.zero()
    assert delta(A1, 1, ONE) == ONE


def test_delta_accepts_root_objects():
    root = A1.simple_root(1)
    assert delta(A1, root, X) == delta(A1, 1, X)
    assert delta_prime(A1, root, X) == delta_prime(A1, 1, X)
    nonsimple = build_root_datum("A2").positive_roots[-1]
    assert nonsimple.height == 2
    with pytest.raises(ValueError):
        delta(build_root_datum("A2"), nonsimple, CharElt.one(2))


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_string_kernel_matches_the_defining_quotients(name):
    # delta_j(u) (1 - e^{-alpha_j}) == u - e^{-alpha_j} s_j(u) and
    # delta'_j(u) (1 - e^{-alpha_j}) == u - s_j(u), checked with the generic
    # ring operations and the matrix action of s_j
    datum = build_root_datum(name)
    group = weyl_group(datum)
    rng = random.Random(f"kernel:{name}")
    one = CharElt.one(datum.rank)
    for _ in range(6):
        u = random_char_elt(rng, datum.rank, nterms=10, span=4)
        for j in range(1, datum.rank + 1):
            shift = monomial(tuple(-c for c in datum.simple_root(j).weight_coords))
            reflected = weyl_act(group.simple(j), u)
            assert delta(datum, j, u) * (one - shift) == u - shift * reflected
            assert delta_prime(datum, j, u) * (one - shift) == u - reflected


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_idempotence_and_unit_values(name):
    datum = build_root_datum(name)
    rng = random.Random(f"demazure:{name}")
    one = CharElt.one(datum.rank)
    for j in range(1, datum.rank + 1):
        assert delta(datum, j, one) == one
        assert delta_prime(datum, j, one) == CharElt.zero()
    for _ in range(12):
        u = random_char_elt(rng, datum.rank)
        for j in range(1, datum.rank + 1):
            du = delta(datum, j, u)
            pu = delta_prime(datum, j, u)
            assert delta(datum, j, du) == du
            assert delta_prime(datum, j, pu) == pu
            # delta = delta' + reflection, termwise exact
            assert du == pu + weyl_act_simple(datum, j, u)


def test_composition_law_when_lengths_add():
    datum = build_root_datum("A2")
    group = weyl_group(datum)
    s1, s2 = group.simple(1), group.simple(2)
    u = monomial((2, -1)) + 3 * monomial((0, 1))
    lhs = delta(datum, 1, delta(datum, 2, u))
    assert lhs == partial(datum, group.multiply(s1, s2), u)
    # lengths do not add for s1 * s1; the operator is idempotent instead
    assert delta(datum, 1, delta(datum, 1, u)) == delta(datum, 1, u)


def test_partial_identity_element():
    group = weyl_group(A1)
    u = X + 2 * X**-2
    assert partial(A1, group.identity, u) == u
    assert partial_prime(A1, group.identity, u) == u


def test_strict_mode_checks_all_words():
    datum = build_root_datum("B2")
    group = weyl_group(datum)
    u = monomial((1, 1)) - monomial((0, 2))
    loose = partial(datum, group.longest, u, strict=False)
    checked = partial(datum, group.longest, u, strict=True)
    assert loose == checked


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_top_is_projector(name):
    datum = build_root_datum(name)
    rng = random.Random(f"top:{name}")
    for _ in range(6):
        u = random_char_elt(rng, datum.rank)
        t = top(datum, u)
        assert top(datum, t) == t
        for j in range(1, datum.rank + 1):
            assert weyl_act_simple(datum, j, t) == t


def test_top_routes_agree():
    for name in ("A1", "A2", "B2", "G2"):
        datum = build_root_datum(name)
        rng = random.Random(f"routes:{name}")
        for _ in range(4):
            u = random_char_elt(rng, datum.rank, nterms=3, span=2)
            via_word = top(datum, u, method="demazure")
            via_quotient = top(datum, u, method="weyl")
            assert via_word == via_quotient
            assert top(datum, u, method="both") == via_word


def test_top_method_validation():
    with pytest.raises(ValueError):
        top(A1, ONE, method="fastest")


def test_top_of_dominant_monomial_is_a_character():
    datum = build_root_datum("A2")
    ch = top(datum, monomial((1, 0)))
    assert ch == monomial((1, 0)) + monomial((-1, 1)) + monomial((0, -1))
    assert sum(c for _, c in ch.items()) == weyl_dimension(datum, (1, 0)) == 3


def test_top_kills_wall_crossing_monomial():
    # e^-1 for rank one: rho-shifted weight is singular, so the projector
    # sends it to zero
    assert top(A1, X**-1) == CharElt.zero()
    assert alternating_quotient(A1, X**-1) == CharElt.zero()


def test_top_rg_linearity():
    datum = build_root_datum("B2")
    chi = top(datum, monomial((1, 0)))  # an invariant element
    rng = random.Random("linearity")
    for _ in range(4):
        u = random_char_elt(rng, 2, nterms=3, span=2)
        assert top(datum, chi * u) == chi * top(datum, u)


def test_conjugation_identity_rank_one():
    # the primed operators are the rho-conjugates of the unprimed ones:
    # partial'_w(u) = e^rho * partial_w(e^-rho * u)
    rng = random.Random("conj")
    group = weyl_group(A1)
    erho = monomial(A1.weyl_vector)
    erho_inv = monomial((-1,))
    for _ in range(8):
        u = random_char_elt(rng, 1)
        for w in group:
            assert partial_prime(A1, w, u) == erho * partial(A1, w, erho_inv * u)


def test_word_values_disagreeing_raise_internal_error():
    # WordMismatch derives from InternalInvariantError so strict-mode failures
    # surface as bugs, not domain errors
    assert issubclass(WordMismatch, InternalInvariantError)


def test_strict_mode_catches_a_broken_braid_relation(monkeypatch):
    # doubling delta_1 breaks delta_1 delta_2 delta_1 == delta_2 delta_1 delta_2:
    # the two reduced words of w0 in A2 give 4 top(u) and 2 top(u)
    datum = build_root_datum("A2")
    w0 = weyl_group(datum).longest
    one = CharElt.one(2)
    real_delta = demazure.delta

    def broken(datum, alpha, u):
        out = real_delta(datum, alpha, u)
        return out * 2 if alpha == 1 else out

    monkeypatch.setattr(demazure, "delta", broken)
    with pytest.raises(WordMismatch):
        partial(datum, w0, one, strict=True)
    with pytest.raises(WordMismatch):
        top(datum, one, strict=True)
    assert partial(datum, w0, one, strict=False) in (2 * one, 4 * one)
    assert top(datum, one, strict=False) in (2 * one, 4 * one)
