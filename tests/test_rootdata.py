"""Root datum construction, validation, and reflection arithmetic."""

import pytest

from weylkit.errors import NotFiniteType
from weylkit.rootdata import NAMED_TYPES, build_root_datum

# (rank, number of positive roots, |W|) for every named type
TYPE_TABLE = {
    "A1": (1, 1, 2),
    "A2": (2, 3, 6),
    "A3": (3, 6, 24),
    "B2": (2, 4, 8),
    "B3": (3, 9, 48),
    "C2": (2, 4, 8),
    "C3": (3, 9, 48),
    "D4": (4, 12, 192),
    "G2": (2, 6, 12),
}


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_named_type_counts(name):
    datum = build_root_datum(name)
    rank, n_pos, _ = TYPE_TABLE[name]
    assert datum.rank == rank
    assert datum.num_positive_roots == n_pos
    assert datum.label == name


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_two_rho_is_positive_root_sum(name):
    datum = build_root_datum(name)
    assert datum.two_rho_check()
    assert datum.weyl_vector == (1,) * datum.rank


@pytest.mark.parametrize("name", NAMED_TYPES)
def test_cartan_recovered_from_pairings(name):
    # columns of the Cartan matrix are the simple roots, rows the simple coroots
    datum = build_root_datum(name)
    for i in range(1, datum.rank + 1):
        for j in range(1, datum.rank + 1):
            alpha_j = datum.simple_root(j)
            assert alpha_j.weight_coords == tuple(
                datum.cartan[k][j - 1] for k in range(datum.rank)
            )
            got = datum.pairing(alpha_j.weight_coords, datum.simple_root(i))
            assert got == datum.cartan[i - 1][j - 1]


def test_positive_root_coordinates_b2():
    datum = build_root_datum("B2")
    coords = {r.root_coords for r in datum.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_positive_root_coordinates_g2():
    datum = build_root_datum("G2")
    coords = {r.root_coords for r in datum.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_positive_root_coordinates_a2():
    datum = build_root_datum("A2")
    coords = {r.root_coords for r in datum.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1)}


def test_simple_roots_listed_first_in_index_order():
    for name in NAMED_TYPES:
        datum = build_root_datum(name)
        for j in range(1, datum.rank + 1):
            assert datum.simple_root(j).root_coords == tuple(
                int(k == j - 1) for k in range(datum.rank)
            )


def test_simple_root_index_bounds():
    datum = build_root_datum("A2")
    with pytest.raises(IndexError):
        datum.simple_root(0)
    with pytest.raises(IndexError):
        datum.simple_root(3)


def test_reflection_is_involutive_and_antisymmetric():
    datum = build_root_datum("B2")
    weights = [(1, 0), (-2, 3), (0, 0), (3, -1), (-3, -3)]
    for lam in weights:
        for root in datum.positive_roots:
            image = datum.reflect(root, lam)
            assert datum.reflect(root, image) == lam
            assert datum.pairing(image, root) == -datum.pairing(lam, root)


def test_reflect_simple_matches_general_reflect():
    datum = build_root_datum("G2")
    for j in range(1, datum.rank + 1):
        root = datum.simple_root(j)
        for lam in [(1, 0), (0, 1), (-2, 5), (3, -3)]:
            assert datum.reflect_simple(j, lam) == datum.reflect(root, lam)


def test_dominant_representative_properties():
    datum = build_root_datum("B2")
    for lam in [(0, 0), (-1, 0), (2, -3), (-3, -3), (1, 1)]:
        rep = datum.dominant_representative(lam)
        assert datum.is_dominant(rep)
        # idempotent, and dominance is untouched for already-dominant input
        assert datum.dominant_representative(rep) == rep
    assert datum.dominant_representative((1, 1)) == (1, 1)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"])
def test_reflect_to_dominant_counts_the_sign(name):
    from itertools import product

    from weylkit.weyl import weyl_group

    datum = build_root_datum(name)
    group = weyl_group(datum)
    for lam in product(range(-3, 4), repeat=datum.rank):
        rep, count = datum.reflect_to_dominant(lam)
        assert rep == datum.dominant_representative(lam)
        assert 0 <= count <= datum.num_positive_roots
        if all(rep):
            # a regular weight is carried to the chamber by exactly one w
            (w,) = [w for w in group if w.act(lam) == rep]
            assert w.sign == (-1) ** count


def test_reflect_to_dominant_that_never_settles_is_an_internal_error():
    from weylkit.charring import _dominant_fold, monomial
    from weylkit.errors import InternalInvariantError
    from weylkit.rootdata import Root, RootDatum

    # A2 with the column of alpha_1 zeroed: s_1 fixes every weight, so a
    # walk that meets a negative first coordinate never leaves it
    datum = build_root_datum("A2")
    first = datum.positive_roots[0]
    zeroed = Root(first.root_coords, (0, 0), first.coroot)
    roots = (zeroed,) + datum.positive_roots[1:]
    broken = RootDatum(datum.rank, datum.cartan, roots, datum.weyl_vector, datum.label)
    assert broken.reflect_to_dominant((1, -1)) == datum.reflect_to_dominant((1, -1)) == ((0, 1), 1)
    with pytest.raises(InternalInvariantError):
        broken.reflect_to_dominant((-1, 0))
    # mu + rho = (-1, 1)
    with pytest.raises(InternalInvariantError):
        _dominant_fold(broken, monomial((-2, 0)))


def test_reflection_closure_that_never_settles_is_an_internal_error():
    from weylkit.errors import InternalInvariantError
    from weylkit.rootdata import _positive_roots

    # affine A1 has infinitely many positive roots; build_root_datum
    # rejects it before the closure runs
    with pytest.raises(InternalInvariantError):
        _positive_roots(((2, -2), (-2, 2)))


def test_negated_root():
    datum = build_root_datum("A2")
    root = datum.positive_roots[-1]
    neg = root.negated()
    assert neg.root_coords == tuple(-c for c in root.root_coords)
    assert not neg.is_positive
    assert datum.pairing((1, 1), neg) == -datum.pairing((1, 1), root)


def test_custom_matrix_equals_named_type():
    named = build_root_datum("A2")
    custom = build_root_datum([[2, -1], [-1, 2]])
    assert custom == named  # equality is (rank, cartan)
    assert custom.label is None
    assert {r.root_coords for r in custom.positive_roots} == {
        r.root_coords for r in named.positive_roots
    }


def test_unknown_name_rejected():
    with pytest.raises(NotFiniteType):
        build_root_datum("E8")
    with pytest.raises(NotFiniteType):
        build_root_datum("Z1")


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -1]],  # not square
        [[1]],  # diagonal entry not 2
        [[2, 1], [1, 2]],  # positive off-diagonal
        [[2, 0], [-1, 2]],  # asymmetric zero pattern
        [[2, -2], [-2, 2]],  # affine: determinant 0
        [[2, -3], [-3, 2]],  # indefinite
    ],
)
def test_bad_cartan_matrices_rejected(matrix):
    with pytest.raises(NotFiniteType):
        build_root_datum(matrix)


def test_lowercase_name_accepted():
    assert build_root_datum("g2").label == "G2"
