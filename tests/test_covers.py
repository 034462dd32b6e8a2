"""Finite torus covers: coset splitting and pullback."""

import random
import time
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from weylkit.charring import CharElt, monomial
from weylkit.covers import build_cover, decompose_cover, pullback, reconstruct_cover
from weylkit.errors import SingularMatrix
from weylkit.intlinalg import mat_vec
from weylkit.selftest import random_char_elt

MATRICES = [
    [[2]],
    [[3]],
    [[2, 0], [0, 2]],
    [[2, 1], [0, 3]],
    [[1, 2], [3, 4]],  # determinant -2
]


def test_index_and_representatives():
    cover = build_cover([[2]])
    assert cover.index == 2
    assert cover.coset_reps == ((0,), (1,))
    cover = build_cover([[2, 0], [0, 2]])
    assert cover.index == 4
    assert len(set(cover.coset_reps)) == 4
    assert cover.coset_reps == ((0, 0), (0, 1), (1, 0), (1, 1))
    cover = build_cover([[1, 2], [3, 4]])
    assert cover.det == -2
    assert cover.index == 2
    assert cover.coset_reps == ((0, 0), (0, -1))


def test_pullback_does_not_enumerate_cosets():
    # a million coset representatives are built only when something reads them
    start = time.perf_counter()
    lifted = pullback(build_cover([[10**6]]), monomial((1,)))
    assert time.perf_counter() - start < 0.5
    assert lifted == monomial((10**6,))


def test_zero_maps_to_zero():
    for mat in MATRICES:
        cover = build_cover(mat)
        zero = (0,) * cover.rank
        assert cover.coset_reps[0] == zero
        rep, k = cover.reduce(zero)
        assert rep == zero and k == zero


def test_reduce_splits_points():
    rng = random.Random("covers")
    for mat in MATRICES:
        cover = build_cover(mat)
        for _ in range(25):
            point = tuple(rng.randint(-9, 9) for _ in range(cover.rank))
            rep, k = cover.reduce(point)
            assert rep in cover.coset_reps
            recombined = tuple(
                r + m for r, m in zip(rep, mat_vec(cover.matrix, list(k)))
            )
            assert recombined == point
            # points in the same coset share their representative
            shifted = tuple(
                p + m for p, m in zip(point, mat_vec(cover.matrix, [1] * cover.rank))
            )
            assert cover.reduce(shifted)[0] == rep


def test_round_trip():
    rng = random.Random("covers-rt")
    for mat in MATRICES:
        cover = build_cover(mat)
        for _ in range(10):
            u = random_char_elt(rng, cover.rank, nterms=5, span=5)
            parts = decompose_cover(cover, u)
            assert set(parts) == set(cover.coset_reps)  # zeros included
            assert reconstruct_cover(cover, parts) == u


@st.composite
def _cover_and_parts(draw):
    # one part per coset, some holding a term and its negative, which cancel
    # completely
    cover = build_cover(draw(st.sampled_from(MATRICES)))
    weight = st.tuples(*[st.integers(-3, 3)] * cover.rank)
    parts = {}
    for rep in cover.coset_reps:
        terms = draw(st.lists(st.tuples(weight, st.integers(-2, 2)), max_size=3))
        if terms and draw(st.booleans()):
            terms.append((terms[0][0], -terms[0][1]))
        parts[rep] = CharElt(terms)
    return cover, parts


@given(_cover_and_parts())
@example((build_cover([[2]]), {(0,): CharElt([((1,), 1), ((1,), -1)]), (1,): monomial((0,))}))
def test_reconstruct_matches_a_fold_by_plus(case):
    cover, parts = case
    u = reconstruct_cover(cover, parts)
    expected = [CharElt._raw({rep: 1}) * pullback(cover, part) for rep, part in parts.items()]
    assert u == reduce(add, expected, CharElt.zero())
    assert 0 not in u._terms.values()
    assert decompose_cover(cover, u) == parts


def test_components_partition_the_support():
    cover = build_cover([[2, 1], [0, 3]])
    u = CharElt({(1, 1): 1, (0, 2): -2, (3, -1): 4, (-2, 0): 1})
    parts = decompose_cover(cover, u)
    seen = []
    for rep, part in parts.items():
        piece = CharElt._raw({rep: 1}) * pullback(cover, part)
        seen.extend(piece.support())
        for nu in piece.support():
            assert cover.reduce(nu)[0] == rep
    assert sorted(seen) == list(u.support())


def test_pullback_is_ring_homomorphism():
    cover = build_cover([[2, 0], [0, 2]])
    u = monomial((1, 0)) + monomial((0, 1))
    v = monomial((1, -1)) - 2 * monomial((0, 0))
    assert pullback(cover, u * v) == pullback(cover, u) * pullback(cover, v)
    assert pullback(cover, u + v) == pullback(cover, u) + pullback(cover, v)
    assert pullback(cover, CharElt.one(2)) == CharElt.one(2)


def test_pullback_reindexes():
    cover = build_cover([[2]])
    assert pullback(cover, monomial((3,))) == monomial((6,))
    cover = build_cover([[1, 2], [3, 4]])
    assert pullback(cover, monomial((1, 0))) == monomial((1, 3))


def test_pullback_injective():
    rng = random.Random("injective")
    cover = build_cover([[3]])
    for _ in range(20):
        u = random_char_elt(rng, 1, nterms=4, span=6)
        v = random_char_elt(rng, 1, nterms=4, span=6)
        if u != v:
            assert pullback(cover, u) != pullback(cover, v)
    assert pullback(cover, CharElt.zero()) == CharElt.zero()


def test_lifted_elements_live_in_the_zero_coset():
    cover = build_cover([[2, 0], [0, 2]])
    u = monomial((2, -1)) + monomial((0, 3))
    parts = decompose_cover(cover, pullback(cover, u))
    assert parts[(0, 0)] == u
    for rep in cover.coset_reps[1:]:
        assert not parts[rep]


def test_bad_matrices_rejected():
    with pytest.raises(SingularMatrix):
        build_cover([[0]])
    with pytest.raises(SingularMatrix):
        build_cover([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        build_cover([[1, 2]])
