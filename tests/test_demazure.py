"""Divided-difference operators: worked values, laws, routes."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charring_reference import act, alternant, denominator, divide_exact_general
from weylkit import charring, demazure
from weylkit.charring import CharElt, monomial, weyl_act_simple
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
    # ring operations and the action of the group element s_j
    datum = build_root_datum(name)
    group = weyl_group(datum)
    rng = random.Random(f"kernel:{name}")
    one = CharElt.one(datum.rank)
    for _ in range(6):
        u = random_char_elt(rng, datum.rank, nterms=10, span=4)
        for j in range(1, datum.rank + 1):
            shift = monomial(tuple(-c for c in datum.simple_root(j).weight_coords))
            reflected = act(group.simple(j), u)
            assert delta(datum, j, u) * (one - shift) == u - shift * reflected
            assert delta_prime(datum, j, u) * (one - shift) == u - reflected


DATA = {name: build_root_datum(name) for name in NAMED_TYPES}
HUGE = 10**40


def delta_reference(datum, j, u, shift):
    # (u - e^{-alpha} s(u)) / (1 - e^{-alpha}) for shift 1, (u - s(u)) / (1 - e^{-alpha}) for 0
    one = CharElt.one(datum.rank)
    down = monomial(tuple(-c for c in datum.simple_root(j).weight_coords))
    reflected = weyl_act_simple(datum, j, u)
    return divide_exact_general(u - (down * reflected if shift else reflected), one - down)


@st.composite
def simple_root_cases(draw):
    """A simple root alpha_j of one of the nine types and a small element
    moved by a far weight: every coordinate but the j-th may be +-10^40, so
    the alpha_j-strings stay short while the packing grows. Half of the
    elements have the form v - s_j(v), whose coefficients cancel."""
    datum = DATA[draw(st.sampled_from(NAMED_TYPES))]
    j = draw(st.integers(1, datum.rank))
    far = tuple(
        0 if i == j - 1 else draw(st.sampled_from([0, HUGE, -HUGE, HUGE + 1])) for i in range(datum.rank)
    )
    small = st.tuples(*[st.integers(-4, 4)] * datum.rank)
    u = monomial(far) * CharElt(draw(st.dictionaries(small, st.integers(-2, 2), max_size=6)))
    if draw(st.booleans()):
        u = u - weyl_act_simple(datum, j, u)
    return datum, j, u


@given(simple_root_cases())
def test_delta_and_delta_prime_match_the_defining_quotients(case):
    datum, j, u = case
    assert delta(datum, j, u) == delta_reference(datum, j, u, 1)
    assert delta_prime(datum, j, u) == delta_reference(datum, j, u, 0)


@st.composite
def word_cases(draw):
    """An element of one of the nine types, with coordinates in [-2, 2]
    ([-1, 1] from rank 3 on, where top(u) grows fast), and a group element."""
    datum = DATA[draw(st.sampled_from(NAMED_TYPES))]
    span = 2 if datum.rank < 3 else 1
    small = st.tuples(*[st.integers(-span, span)] * datum.rank)
    u = CharElt(draw(st.dictionaries(small, st.integers(-2, 2), max_size=4)))
    return datum, u, draw(st.sampled_from(weyl_group(datum).elements))


@given(word_cases())
def test_packed_words_match_single_steps_and_the_weyl_route(case):
    # a whole word runs on one packing; composing delta_j one at a time
    # packs at each step
    datum, u, w = case
    for op, word_op in ((delta, partial), (delta_prime, partial_prime)):
        expected = u
        for j in reversed(w.word):
            expected = op(datum, j, expected)
        assert word_op(datum, w, u, strict=False) == expected
    assert top(datum, u, strict=False) == top(datum, u, strict=False, method="weyl")


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_strict_top_equals_non_strict(name):
    datum = DATA[name]
    rng = random.Random(f"strict:{name}")
    u = random_char_elt(rng, datum.rank, nterms=3, span=1)
    assert top(datum, u, strict=True) == top(datum, u, strict=False)


@given(word_cases())
def test_strict_words_equal_non_strict(case):
    datum, u, w = case
    for word_op in (partial, partial_prime):
        assert word_op(datum, w, u, strict=True) == word_op(datum, w, u, strict=False)


def test_strict_top_runs_one_kernel_pass_per_weak_order_edge(monkeypatch):
    # the edges x -> s_j x over the left descents j of every x in D4 number
    # |W| rank / 2 = 192 * 4 / 2; composing along all 2316 reduced words of
    # w0 took 2316 * 12 = 27 792 passes
    datum = DATA["D4"]
    real_kernel = demazure._string_quotient
    calls = []

    def counting(terms, packing, root, shift):
        calls.append(root)
        return real_kernel(terms, packing, root, shift)

    monkeypatch.setattr(demazure, "_string_quotient", counting)
    u = random_char_elt(random.Random("strict-cost"), datum.rank, nterms=1, span=1)
    top(datum, u, strict=True)
    assert len(calls) == 384
    calls.clear()
    top(datum, u, strict=False)
    assert len(calls) == 12


def test_rank_zero_and_zero_input():
    point = build_root_datum([])
    five = 5 * CharElt.one(0)
    for method in ("demazure", "weyl", "both"):
        assert top(point, five, method=method) == five
        assert top(point, CharElt.zero(), method=method) == CharElt.zero()
    for name in NAMED_TYPES:
        datum = DATA[name]
        assert top(datum, CharElt.zero(), method="both") == CharElt.zero()
        for j in range(1, datum.rank + 1):
            assert delta(datum, j, CharElt.zero()) == CharElt.zero()
            assert delta_prime(datum, j, CharElt.zero()) == CharElt.zero()


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
    # a project-sized element: the 81 weights of the D4 box [-1, 1]^4
    d4 = DATA["D4"]
    rng = random.Random("routes:D4")
    u = CharElt({mu: rng.choice([-3, -2, -1, 1, 2, 3]) for mu in product(range(-1, 2), repeat=4)})
    assert len(u) == 81
    assert top(d4, u, method="both") == top(d4, u, method="weyl") != CharElt.zero()


def quotient_reference(datum, u):
    """A(u)/d the long way: the sum over W, then one long division by the
    product of the factors (1 - e^{-beta})."""
    return divide_exact_general(alternant(datum, u), denominator(datum))


F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
D5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]
A1_A1 = [[2, 0], [0, 2]]
A2_B2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -2, 2]]


@pytest.mark.parametrize(
    "spec", [*NAMED_TYPES, A1_A1, A2_B2, F4, D5], ids=[*NAMED_TYPES, "A1xA1", "A2xB2", "F4", "D5"]
)
def test_alternating_quotient_matches_the_division_by_every_positive_root(spec):
    datum = build_root_datum(spec)
    rank = datum.rank
    rng = random.Random(f"quotient:{rank}:{datum.num_positive_roots}")
    # every weight has a coordinate -1, so every rho-shift lies on a wall
    singular = CharElt(
        {tuple(-1 if i == j else rng.randint(-3, 3) for i in range(rank)): j + 1 for j in range(rank)}
    )
    assert quotient_reference(datum, singular) == alternating_quotient(datum, singular) == CharElt.zero()
    cases = [CharElt.zero(), monomial((-2,) * rank, 3), monomial((-1,) * rank) + monomial((0,) * rank)]
    group = weyl_group(datum)
    if len(group) < 1000:
        cases += [random_char_elt(rng, rank, nterms=6, span=2) for _ in range(8)]
    else:
        # F4 and D5: e^{w(nu + rho) - rho} projects to sign(w) chi_nu, so
        # small nu and random w give negative weights with small quotients
        rho = datum.weyl_vector
        small = [nu for nu in product(range(2), repeat=rank) if weyl_dimension(datum, nu) <= 60]
        for _ in range(2):
            terms = {}
            for nu in rng.sample(small, 2):
                x = rng.choice(group.elements).act([n + r for n, r in zip(nu, rho)])
                terms[tuple(a - r for a, r in zip(x, rho))] = rng.randint(1, 4)
            cases.append(CharElt(terms))
    for u in cases:
        assert alternating_quotient(datum, u) == quotient_reference(datum, u)


def test_weyl_route_divides_in_the_dominant_chamber(monkeypatch):
    b3 = DATA["B3"]
    u = random_char_elt(random.Random("chamber"), 3, nterms=20, span=3)
    expected = top(b3, u, method="demazure")
    assert expected != CharElt.zero()

    def refuse(*args):
        raise AssertionError("the Weyl route divided along strings")

    monkeypatch.setattr(charring, "_string_quotient", refuse)
    monkeypatch.setattr(demazure, "_string_quotient", refuse)
    assert top(b3, u, method="weyl") == expected


def test_top_method_validation():
    with pytest.raises(ValueError):
        top(A1, ONE, method="fastest")


def test_top_routes_that_disagree_raise_internal_error(monkeypatch):
    datum = build_root_datum("A2")
    u = monomial((1, 0))
    real = demazure.alternating_quotient
    monkeypatch.setattr(demazure, "alternating_quotient", lambda d, v: 2 * real(d, v))
    assert top(datum, u, method="weyl") == 2 * top(datum, u, method="demazure")
    with pytest.raises(InternalInvariantError, match=r"top routes disagree: demazure .* vs weyl "):
        top(datum, u, method="both")
    with pytest.raises(ValueError, match="unknown method 'fastest'"):
        top(datum, u, method="fastest")


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


def test_walk_names_two_reduced_words_on_a_mismatch():
    # a step that records its letters tells every reduced word apart
    datum = build_root_datum("A2")
    w0 = weyl_group(datum).longest

    def record(j, word):
        return (j,) + word

    assert demazure._walk(datum, w0, (), record, strict=False) == w0.word
    with pytest.raises(WordMismatch, match=r"reduced words \(1, 2, 1\) and \(2, 1, 2\)"):
        demazure._walk(datum, w0, (), record, strict=True)


def test_word_values_disagreeing_raise_internal_error():
    # WordMismatch derives from InternalInvariantError so strict-mode failures
    # surface as bugs, not domain errors
    assert issubclass(WordMismatch, InternalInvariantError)


def test_strict_mode_catches_a_broken_braid_relation(monkeypatch):
    # doubling delta_1 breaks delta_1 delta_2 delta_1 == delta_2 delta_1 delta_2:
    # the two reduced words of w0 in A2 give 4 top(u) and 2 top(u). The break
    # goes into the packed string kernel, which every route runs through.
    datum = build_root_datum("A2")
    w0 = weyl_group(datum).longest
    one = CharElt.one(2)
    real_kernel = demazure._string_quotient
    alpha_1 = datum.simple_root(1)

    def broken(terms, packing, root, shift):
        out = real_kernel(terms, packing, root, shift)
        return {key: 2 * c for key, c in out.items()} if root == alpha_1 else out

    monkeypatch.setattr(demazure, "_string_quotient", broken)
    with pytest.raises(WordMismatch):
        partial(datum, w0, one, strict=True)
    with pytest.raises(WordMismatch):
        top(datum, one, strict=True)
    assert partial(datum, w0, one, strict=False) in (2 * one, 4 * one)
    assert top(datum, one, strict=False) in (2 * one, 4 * one)
