"""Exact Laurent arithmetic in the character ring."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charring_reference import act, divide_exact_general
from weylkit.charring import CharElt, _dominant_fold, is_weyl_invariant, monomial, weyl_act_simple
from weylkit.errors import NotDivisible
from weylkit.repring import irreducible_character, orbit_sum
from weylkit.rootdata import NAMED_TYPES, build_root_datum
from weylkit.weyl import weyl_group

DATA = {name: build_root_datum(name) for name in NAMED_TYPES}


def char_elts(rank: int, span: int = 3, max_terms: int = 5):
    weights = st.tuples(*([st.integers(-span, span)] * rank))
    coeffs = st.integers(-9, 9)
    return st.dictionaries(weights, coeffs, max_size=max_terms).map(CharElt)


@given(char_elts(2), char_elts(2), char_elts(2, max_terms=3))
def test_ring_laws(u, v, w):
    assert u + v == v + u
    assert (u + v) + w == u + (v + w)
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert (u + v) * w == u * w + v * w
    assert u - v == u + (-v)
    assert u - u == CharElt.zero()
    assert u + CharElt.zero() == u
    assert u * CharElt.one(2) == u
    assert u * 0 == CharElt.zero()
    assert 3 * u == u + u + u


@given(char_elts(1))
def test_equality_ignores_construction_order(u):
    rebuilt = CharElt(list(u.items())[::-1])
    assert rebuilt == u


def product_reference(u, v):
    """u * v by the double loop over pairs of terms."""
    out = {}
    for mu, c in u.items():
        for nu, d in v.items():
            key = tuple(x + y for x, y in zip(mu, nu))
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def wide_char_elts(rank: int):
    # small coordinates make pairs collide and coefficients cancel; the
    # huge ones stretch the packing's place values far past any machine word
    coords = st.one_of(st.integers(-2, 2), st.sampled_from([10**40, -(10**40), 10**40 + 1]))
    weights = st.tuples(*([coords] * rank))
    return st.dictionaries(weights, st.integers(-2, 2), max_size=6).map(CharElt)


@given(st.integers(0, 4).flatmap(lambda rank: st.tuples(wide_char_elts(rank), wide_char_elts(rank))))
def test_product_matches_the_double_loop(pair):
    u, v = pair
    product = u * v
    assert product._terms == product_reference(u, v)
    assert v * u == product


def test_product_fixed_cases():
    x = monomial((1,))
    u = x + 3 * x**-2 - CharElt.one(1)
    zero = CharElt.zero()
    assert zero * u == zero and u * zero == zero
    for m in (monomial((4,), -2), CharElt.one(1)):
        assert (m * u)._terms == product_reference(m, u)
        assert (u * m)._terms == product_reference(u, m)
    assert 3 * u == u * 3 == u + u + u
    assert 0 * u == zero and u * 0 == zero
    unit = CharElt.one(0)
    assert unit * unit == unit and str(unit * -2) == "-2*e[]"
    assert (x + x**-1) * (x - x**-1) == x**2 - x**-2
    w = monomial((1, -1)) - 2 * monomial((0, 3)) + monomial((-1, 0))
    power = CharElt.one(2)
    for n in range(10):
        assert w**n == power
        power = power * w


def test_zero_coefficients_never_stored():
    u = CharElt({(1,): 2, (0,): 0})
    assert len(u) == 1
    assert u.coefficient((0,)) == 0
    assert (u - u).support() == ()
    assert not CharElt.zero()


def test_pow():
    x = monomial((1,))
    one = CharElt.one(1)
    assert x**0 == one
    assert x**3 == monomial((3,))
    assert (x + x**-1) ** 2 == x**2 + 2 * one + x**-2
    assert x**-2 == monomial((-2,))
    # unit monomials with coefficient -1 still invert
    y = monomial((1,), -1)
    assert y**-1 == monomial((-1,), -1)
    assert y**-2 == monomial((-2,))
    assert y**-1 * y == one
    # zero has no rank to give its zeroth power
    with pytest.raises(ValueError, match="rank"):
        CharElt.zero() ** 0


def test_pow_of_non_unit_rejected():
    x = monomial((1,))
    with pytest.raises(NotDivisible):
        (x + CharElt.one(1)) ** -1
    with pytest.raises(NotDivisible):
        (2 * x) ** -1


def test_str_frozen_forms():
    assert str(CharElt.zero()) == "0"
    assert str(CharElt.one(1)) == "e[0]"
    u = monomial((2,)) + monomial((0,)) - 2 * monomial((-2,))
    assert str(u) == "e[2] + e[0] - 2*e[-2]"
    # terms print in descending lexicographic weight order
    v = -monomial((1, 0)) + 3 * monomial((0, 1))
    assert str(v) == "-e[1,0] + 3*e[0,1]"


@given(char_elts(2))
def test_json_round_trip(u):
    payload = u.to_json()
    assert CharElt((tuple(t["w"]), t["c"]) for t in payload["terms"]) == u
    ws = [tuple(t["w"]) for t in payload["terms"]]
    assert ws == sorted(ws)  # ascending canonical order
    assert all(t["c"] != 0 for t in payload["terms"])


def test_weyl_act_is_ring_automorphism():
    datum = build_root_datum("B2")
    group = weyl_group(datum)
    u = monomial((1, 0)) + 2 * monomial((0, 1))
    v = monomial((1, -2)) - monomial((0, 0))
    for w in group:
        assert act(w, u * v) == act(w, u) * act(w, v)
        assert act(w, u + v) == act(w, u) + act(w, v)
    # simple-reflection shortcut agrees with the action of the group element
    for j in (1, 2):
        assert weyl_act_simple(datum, j, u) == act(group.simple(j), u)


def test_simple_reflection_index_is_checked_once_also_on_zero():
    datum = build_root_datum("A2")
    for j in (0, 3, -1):
        with pytest.raises(IndexError):
            weyl_act_simple(datum, j, CharElt.zero())
        with pytest.raises(IndexError):
            weyl_act_simple(datum, j, monomial((1, 0)))


def test_is_weyl_invariant_witness():
    datum = build_root_datum("A2")
    u = monomial((1, 0))
    assert is_weyl_invariant(datum, u) == (False, (1, monomial((-1, 1))))
    orbit_sum = u + monomial((-1, 1)) + monomial((0, -1))
    assert is_weyl_invariant(datum, orbit_sum) == (True, None)
    assert is_weyl_invariant(datum, CharElt.zero()) == (True, None)


def invariance_reference(datum, u):
    # s_j(u) == u for each j in order, as one dict rebuild per reflection
    for j in range(1, datum.rank + 1):
        image = weyl_act_simple(datum, j, u)
        if image != u:
            return False, (j, image)
    return True, None


@st.composite
def invariance_cases(draw):
    """A datum and an element near R(G): a sum of orbit sums, a product of
    two irreducible characters, either with one term removed, or either
    plus a term whose mu_j < 0 side may have no mirror (such as A1 e[-1])."""
    datum = DATA[draw(st.sampled_from(NAMED_TYPES))]
    dominant = st.tuples(*[st.integers(0, 1)] * datum.rank)
    if draw(st.booleans()):
        u = irreducible_character(datum, draw(dominant), strict=False)
        u = u * irreducible_character(datum, draw(dominant), strict=False)
    else:
        u = CharElt.zero()
        for lam in draw(st.lists(st.tuples(*[st.integers(0, 2)] * datum.rank), max_size=3)):
            u = u + orbit_sum(datum, lam) * draw(st.sampled_from([-2, -1, 1, 3]))
    change = draw(st.sampled_from(["none", "remove", "add"]))
    if change == "remove" and u:
        mu = draw(st.sampled_from(u.support()))
        u = u - monomial(mu, u.coefficient(mu))
    elif change == "add":
        # no coordinate above 0: where s_j(nu) is not in u, nothing on the
        # mu_j > 0 side maps onto nu, which only the count sees
        nu = draw(st.tuples(*[st.integers(-3, 0)] * datum.rank))
        u = u + monomial(nu, draw(st.sampled_from([-1, 1, 2])))
    return datum, u


@given(invariance_cases())
def test_is_weyl_invariant_matches_the_reflected_images(case):
    datum, u = case
    assert is_weyl_invariant(datum, u) == invariance_reference(datum, u)


def test_is_weyl_invariant_counts_the_unmirrored_side():
    A1 = DATA["A1"]
    assert is_weyl_invariant(A1, monomial((-1,))) == (False, (1, monomial((1,))))
    # s_1 e[1] = e[-1] is matched, and e[-2] has no term to come from
    u = monomial((1,)) + monomial((-1,)) + monomial((-2,))
    image = monomial((-1,)) + monomial((1,)) + monomial((2,))
    assert is_weyl_invariant(A1, u) == invariance_reference(A1, u) == (False, (1, image))


def test_divide_exact_general():
    x = monomial((1,))
    one = CharElt.one(1)
    num = (x + one) * (x - one) * (x**-2 + 3 * one)
    assert divide_exact_general(num, x + one) == (x - one) * (x**-2 + 3 * one)
    assert divide_exact_general(CharElt.zero(), x + one) == CharElt.zero()
    with pytest.raises(NotDivisible):
        divide_exact_general(x + one, x - one)
    with pytest.raises(ZeroDivisionError):
        divide_exact_general(x, CharElt.zero())


@given(char_elts(2, span=2, max_terms=4), char_elts(2, span=2, max_terms=3))
def test_divide_exact_general_round_trip(u, d):
    if not d:
        return
    assert divide_exact_general(u * d, d) == u


def dominant_fold_reference(datum, u):
    # one reflect_simple per step, at the first negative coordinate
    folded = CharElt.zero()
    for mu, c in u.items():
        lam = tuple(a + r for a, r in zip(mu, datum.weyl_vector))
        count = 0
        while not datum.is_dominant(lam):
            j = next(j for j, x in enumerate(lam, 1) if x < 0)
            lam = datum.reflect_simple(j, lam)
            count += 1
        if all(lam):
            folded = folded + monomial(lam, (-1) ** count * c)
    return folded


@st.composite
def fold_cases(draw):
    """A datum and an element with virtual coefficients: random terms,
    terms whose mu + rho is singular (a reflected wall weight), or a
    product of two irreducible characters."""
    datum = DATA[draw(st.sampled_from(NAMED_TYPES))]
    rank = datum.rank
    if draw(st.booleans()):
        dominant = st.tuples(*[st.integers(0, 1)] * rank)
        u = irreducible_character(datum, draw(dominant), strict=False)
        u = u * irreducible_character(datum, draw(dominant), strict=False)
    else:
        weights = st.tuples(*[st.integers(-4, 4)] * rank)
        u = CharElt(draw(st.dictionaries(weights, st.integers(-3, 3), max_size=6)))
    for wall, word, c in draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-3, 3)] * rank),
                st.lists(st.integers(1, rank), max_size=6),
                st.sampled_from([-2, -1, 1, 2]),
            ),
            max_size=3,
        )
    ):
        # nu has a zero coordinate, so nu and its W-images are singular
        nu = (0,) + wall[1:]
        for j in word:
            nu = datum.reflect_simple(j, nu)
        u = u + monomial(tuple(a - r for a, r in zip(nu, datum.weyl_vector)), c)
    return datum, u


@given(fold_cases())
def test_dominant_fold_matches_the_reflect_simple_walk(case):
    datum, u = case
    assert CharElt(_dominant_fold(datum, u)) == dominant_fold_reference(datum, u)
