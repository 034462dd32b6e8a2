"""Weyl group enumeration: orders, words, actions, orbits."""

import time

import pytest

from weylkit.errors import SafetyBoundExceeded
from weylkit.rootdata import NAMED_TYPES, build_root_datum
from weylkit.weyl import _order, orbit, weyl_group

ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C2": 8,
    "C3": 48,
    "D4": 192,
    "G2": 12,
}


@pytest.mark.parametrize("name,order", sorted(ORDERS.items()))
def test_group_order(name, order):
    group = weyl_group(build_root_datum(name))
    assert len(group) == order
    assert len({w.key for w in group}) == order  # keys are distinct


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_longest_element(name):
    datum = build_root_datum(name)
    group = weyl_group(datum)
    w0 = group.longest
    assert w0.length == datum.num_positive_roots
    assert w0.sign == (-1) ** w0.length
    # w0 is the unique maximum of the length function
    assert sum(1 for w in group if w.length == w0.length) == 1
    assert w0.key == tuple(-c for c in datum.weyl_vector)


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_word_is_first_reduced_word_and_every_word_acts_alike(name):
    # the word convention that HeckeOp JSON and CLI output print
    datum = build_root_datum(name)
    group = weyl_group(datum)
    probe = (3, -2, 5, -1)[: datum.rank]
    for w in group:
        words = group.all_reduced_words(w)
        assert w.word == min(words)
        for word in words:
            lam = probe
            for j in reversed(word):
                lam = datum.reflect_simple(j, lam)
            assert w.act(probe) == lam


def test_longest_word_dihedral_types():
    assert weyl_group(build_root_datum("A2")).longest.word == (1, 2, 1)
    assert weyl_group(build_root_datum("B2")).longest.word == (1, 2, 1, 2)
    assert weyl_group(build_root_datum("G2")).longest.word == (1, 2, 1, 2, 1, 2)


def test_longest_acts_as_minus_one_when_expected():
    # B2, G2: w0 = -id on the weight lattice. A2: w0 composes -id with the
    # diagram flip.
    for name in ("B2", "G2"):
        group = weyl_group(build_root_datum(name))
        assert group.longest.act((1, 2)) == (-1, -2)
    a2 = weyl_group(build_root_datum("A2"))
    assert a2.longest.act((1, 2)) == (-2, -1)


def test_simple_reflections():
    datum = build_root_datum("B2")
    group = weyl_group(datum)
    for j in (1, 2):
        s = group.simple(j)
        assert s.length == 1
        assert s.word == (j,)
        for lam in [(1, 0), (2, -3)]:
            assert s.act(lam) == datum.reflect_simple(j, lam)
        assert group.multiply(s, s) == group.identity


def test_multiply_matches_composed_action():
    datum = build_root_datum("A3")
    group = weyl_group(datum)
    elements = group.elements
    probe = (1, -2, 3)
    for a in elements[::5]:
        for b in elements[::7]:
            ab = group.multiply(a, b)
            assert ab.act(probe) == a.act(b.act(probe))


def test_inverse():
    group = weyl_group(build_root_datum("B2"))
    for w in group:
        winv = group.inverse(w)
        assert group.multiply(w, winv) == group.identity
        assert group.multiply(winv, w) == group.identity
        assert winv.length == w.length


def test_right_descend_is_right_multiplication():
    group = weyl_group(build_root_datum("A2"))
    for w in group:
        for j in (1, 2):
            assert group.right_descend(w, j) == group.multiply(w, group.simple(j))


def test_word_is_reduced():
    group = weyl_group(build_root_datum("G2"))
    for w in group:
        assert len(w.word) == w.length
        v = group.identity
        for j in w.word:
            v = group.right_descend(v, j)
        assert v == w


REDUCED_WORD_COUNTS_W0 = {"A2": 2, "B2": 2, "G2": 2, "A3": 16}


@pytest.mark.parametrize("name,count", sorted(REDUCED_WORD_COUNTS_W0.items()))
def test_reduced_word_count_of_longest(name, count):
    group = weyl_group(build_root_datum(name))
    words = group.all_reduced_words(group.longest)
    assert len(words) == count
    assert len(set(words)) == count
    for word in words:
        assert len(word) == group.longest.length
        v = group.identity
        for j in word:
            v = group.right_descend(v, j)
        assert v == group.longest


def test_all_reduced_words_identity_and_simples():
    group = weyl_group(build_root_datum("A2"))
    assert group.all_reduced_words(group.identity) == ((),)
    for j in (1, 2):
        assert group.all_reduced_words(group.simple(j)) == ((j,),)


def test_orbit_frozen_a2():
    datum = build_root_datum("A2")
    assert orbit(datum, (1, 0)) == ((-1, 1), (0, -1), (1, 0))
    assert orbit(datum, (0, 0)) == ((0, 0),)


def test_orbit_of_a_wrong_rank_weight_raises():
    b2 = build_root_datum("B2")
    for weight in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="rank is 2"):
            orbit(b2, weight)


def test_orbit_of_regular_weight_has_group_size():
    for name in ("A1", "A2", "B2", "G2"):
        datum = build_root_datum(name)
        group = weyl_group(datum)
        assert len(orbit(datum, datum.weyl_vector)) == len(group)


def test_orbit_size_divides_group_order():
    datum = build_root_datum("B2")
    group = weyl_group(datum)
    for lam in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 0)]:
        points = orbit(datum, lam)
        assert len(group) % len(points) == 0
        assert list(points) == sorted(points)
        # one dominant representative per orbit
        doms = [p for p in points if datum.is_dominant(p)]
        assert doms == [datum.dominant_representative(lam)]


def test_orbit_closed_under_action():
    datum = build_root_datum("G2")
    group = weyl_group(datum)
    points = set(orbit(datum, (1, 1)))
    for w in group:
        assert {w.act(p) for p in points} == points


def _e_cartan(rank):
    # Bourbaki labels: the chain 1-3-4-...-rank, with 2 joined to 4
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, rank)]:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
A1_A1 = [[2, 0], [0, 2]]
A2_B2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -2, 2]]


@pytest.mark.parametrize(
    "spec,order",
    [*sorted(ORDERS.items()), (F4, 1152), (A1_A1, 4), (A2_B2, 48)],
    ids=[*sorted(ORDERS), "F4", "A1xA1", "A2xB2"],
)
def test_order_formula_counts_the_enumerated_group(spec, order):
    datum = build_root_datum(spec)
    assert _order(datum) == len(weyl_group(datum)) == order


@pytest.mark.parametrize("rank,order", [(6, 51840), (7, 2903040), (8, 696729600)])
def test_order_formula_on_e_types(rank, order):
    assert _order(build_root_datum(_e_cartan(rank))) == order


def test_group_above_the_cap_is_refused_before_enumerating():
    datum = build_root_datum(_e_cartan(7))
    start = time.perf_counter()
    with pytest.raises(SafetyBoundExceeded):
        weyl_group(datum)
    assert time.perf_counter() - start < 1.0
