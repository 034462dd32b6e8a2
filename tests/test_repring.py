"""Invariant subring: characters, decompositions, module coordinates."""

import hashlib
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit.charring import CharElt, monomial
from weylkit.config import set_strict_default
from weylkit.demazure import top
from weylkit.errors import FreenessCheckFailed, InternalInvariantError, NotInvariant
import weylkit.repring as repring
from weylkit.repring import (
    IrredDecomp,
    SteinbergBasis,
    decompose_into_irreducibles,
    decompose_over_invariants,
    induce,
    irreducible_character,
    orbit_sum,
    reconstruct_over_invariants,
    restrict,
    steinberg_basis,
    tensor_product,
    weyl_dimension,
)
from weylkit.rootdata import build_root_datum
from weylkit.selftest import random_char_elt
from weylkit.weyl import orbit, weyl_group

A1 = build_root_datum("A1")
A2 = build_root_datum("A2")

# dimensions of the fundamental representations, classical values
FUNDAMENTAL_DIMS = {
    "A1": [2],
    "A2": [3, 3],
    "A3": [4, 6, 4],
    "B2": [5, 4],
    "B3": [7, 21, 8],
    "C2": [4, 5],
    "C3": [6, 14, 14],
    "D4": [8, 28, 8, 8],
    "G2": [7, 14],
}


@pytest.mark.parametrize("name,dims", sorted(FUNDAMENTAL_DIMS.items()))
def test_fundamental_dimensions(name, dims):
    datum = build_root_datum(name)
    got = []
    for j in range(datum.rank):
        lam = tuple(int(i == j) for i in range(datum.rank))
        got.append(weyl_dimension(datum, lam))
    assert got == dims
    assert weyl_dimension(datum, (0,) * datum.rank) == 1


def test_dimension_that_fails_to_divide_is_an_internal_error():
    class NonDividingDatum:
        # one positive root with <rho, a> = 2 and <lambda + rho, a> = 3
        weyl_vector = (2,)
        positive_roots = ("a",)

        def _checked_weight(self, weight):
            return tuple(weight)

        def is_dominant(self, weight):
            return True

        def pairing(self, weight, root):
            return weight[0]

    with pytest.raises(InternalInvariantError):
        weyl_dimension(NonDividingDatum(), (1,))


def test_dimension_known_values():
    assert weyl_dimension(A1, (3,)) == 4
    assert weyl_dimension(A2, (1, 1)) == 8
    assert weyl_dimension(A2, (2, 2)) == 27
    assert weyl_dimension(build_root_datum("B2"), (0, 2)) == 10
    assert weyl_dimension(build_root_datum("G2"), (2, 0)) == 27


def test_dimension_requires_dominance():
    with pytest.raises(ValueError):
        weyl_dimension(A2, (-1, 0))


def test_dimension_of_a_wrong_rank_weight_raises():
    b2 = build_root_datum("B2")
    for weight in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="rank is 2"):
            weyl_dimension(b2, weight)


def test_character_matches_dimension():
    for name in ("A2", "B2"):
        datum = build_root_datum(name)
        for lam in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
            ch = irreducible_character(datum, lam)
            assert sum(c for _, c in ch.items()) == weyl_dimension(datum, lam)
            assert ch.coefficient(lam) == 1  # highest weight has multiplicity one


def test_character_frozen_values():
    assert irreducible_character(A1, (2,)) == (
        monomial((2,)) + monomial((0,)) + monomial((-2,))
    )
    assert irreducible_character(A2, (1, 0)) == (
        monomial((1, 0)) + monomial((-1, 1)) + monomial((0, -1))
    )


def test_character_methods_agree():
    for lam in [(1, 1), (2, 0), (0, 2)]:
        assert irreducible_character(A2, lam, method="weyl") == irreducible_character(
            A2, lam, method="demazure"
        )


@pytest.mark.parametrize("method", ["demazure", "weyl", "both"])
def test_character_of_a_wrong_rank_weight_raises(method):
    b2 = build_root_datum("B2")
    for weight in [(), (0,), (1,), (0, 0, 0), (1, 0, 0)]:
        with pytest.raises(ValueError, match="rank is 2"):
            irreducible_character(b2, weight, method=method)


def test_trivial_character_needs_no_projection(monkeypatch):
    b2 = build_root_datum("B2")
    repring._irreducible_cached.cache_clear()
    calls = []
    monkeypatch.setattr(repring, "top", lambda *args, **kw: calls.append(args) or top(*args, **kw))
    for strict in (True, False):
        for method in ("demazure", "weyl", "both"):
            assert irreducible_character(b2, (0, 0), strict, method) == CharElt.one(2)
    assert calls == []
    with pytest.raises(ValueError, match="unknown method"):
        irreducible_character(b2, (0, 0), method="kostant")


def test_rank_one_tensor_decompositions():
    chi1 = irreducible_character(A1, (1,))
    chi2 = irreducible_character(A1, (2,))
    assert decompose_into_irreducibles(A1, chi1 * chi1) == IrredDecomp(
        {(2,): 1, (0,): 1}
    )
    assert decompose_into_irreducibles(A1, chi1 * chi2) == IrredDecomp(
        {(3,): 1, (1,): 1}
    )


def test_adjoint_square_a2():
    adjoint = irreducible_character(A2, (1, 1))
    dec = decompose_into_irreducibles(A2, adjoint * adjoint)
    assert dec == IrredDecomp({(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1})
    # dimensions add up: 64 = 27 + 10 + 10 + 2*8 + 1
    assert sum(weyl_dimension(A2, lam) * c for lam, c in dec.items()) == 64


def test_virtual_decomposition():
    u = CharElt.one(1) - irreducible_character(A1, (1,))
    dec = decompose_into_irreducibles(A1, u)
    assert dec == IrredDecomp({(0,): 1, (1,): -1})
    assert restrict(A1, dec) == u


def test_decompose_rejects_non_invariant():
    with pytest.raises(NotInvariant):
        decompose_into_irreducibles(A2, monomial((1, 0)))


def test_restrict_induce_round_trip():
    rng = random.Random("induce")
    for datum in (A1, A2):
        for _ in range(5):
            lam = tuple(rng.randint(0, 2) for _ in range(datum.rank))
            mu = tuple(rng.randint(0, 2) for _ in range(datum.rank))
            product = irreducible_character(datum, lam) * irreducible_character(datum, mu)
            dec = decompose_into_irreducibles(datum, product)
            assert restrict(datum, dec) == product
            assert induce(datum, product) == dec


READ_OFF_GROUPS = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4"]


def _dominant_weights(rng, rank, hi, count):
    return {tuple(rng.randint(0, hi) for _ in range(rank)) for _ in range(count)}


@pytest.mark.parametrize("name", READ_OFF_GROUPS)
def test_decompose_virtual_invariants_restricts_back(name):
    datum = build_root_datum(name)
    rng = random.Random(f"read-off:{name}")
    top_entry = 2 if datum.rank <= 2 else 1
    for _ in range(3):
        expected = {
            lam: rng.choice([-3, -2, -1, 1, 2, 3])
            for lam in _dominant_weights(rng, datum.rank, top_entry, 4)
        }
        u = CharElt.zero()
        for lam, c in expected.items():
            u = u + irreducible_character(datum, lam) * c
        dec = decompose_into_irreducibles(datum, u)
        assert dec == IrredDecomp(expected)
        assert restrict(datum, dec) == u
    # chi_lambda - chi_mu with mu a dominant weight of chi_lambda: the two
    # characters cancel at every weight of chi_mu
    lam = (top_entry + 1,) * datum.rank
    chi = irreducible_character(datum, lam)
    lower = [mu for mu in chi.support() if datum.is_dominant(mu) and mu != lam]
    mu = rng.choice(lower)
    u = chi - irreducible_character(datum, mu)
    dec = decompose_into_irreducibles(datum, u)
    assert dec == IrredDecomp({lam: 1, mu: -1})
    assert restrict(datum, dec) == u


@pytest.mark.parametrize("name", READ_OFF_GROUPS)
def test_induce_is_decomposition_of_top(name):
    datum = build_root_datum(name)
    rank = datum.rank
    rho = datum.weyl_vector
    rng = random.Random(f"induce-top:{name}")
    # rho-singular weights (-rho, and a zero coordinate of nu + rho) give no
    # term; -2 rho is regular and lands on chi_0 with the sign of w0
    fixed = [
        monomial(tuple(-r for r in rho)),
        monomial((-1,) + (0,) * (rank - 1)),
        monomial(tuple(-2 * r for r in rho)),
        monomial((-1,) * rank) - monomial((-2,) + (1,) * (rank - 1)) * 3,
    ]
    seeded = [random_char_elt(rng, rank, nterms=4, span=2) for _ in range(3)]
    for u in fixed + seeded:
        expected = top(datum, u, method="both")
        assert induce(datum, u) == decompose_into_irreducibles(datum, expected)
    assert induce(datum, fixed[0]) == IrredDecomp({})
    assert induce(datum, fixed[1]) == IrredDecomp({})
    assert induce(datum, fixed[2]) == IrredDecomp(
        {(0,) * rank: (-1) ** datum.num_positive_roots}
    )


def test_d4_fourth_fundamental_square():
    d4 = build_root_datum("D4")
    lam = (1, 1, 1, 1)
    chi = irreducible_character(d4, lam, strict=False)
    dec = decompose_into_irreducibles(d4, chi * chi, strict=False)
    assert len(dec) == 89
    assert all(c > 0 for _, c in dec.items())
    assert sum(c * weyl_dimension(d4, nu) for nu, c in dec.items()) == weyl_dimension(d4, lam) ** 2


def test_induce_projects_first():
    # induce works on arbitrary elements by projecting, so a bare monomial
    # lands on the character it generates
    assert induce(A1, monomial((1,))) == IrredDecomp({(1,): 1})
    assert induce(A1, monomial((-1,))) == IrredDecomp({})


def test_orbit_sum_properties():
    datum = build_root_datum("B2")
    u = orbit_sum(datum, (1, -1))
    assert u.support() == orbit(datum, (1, -1))
    assert all(c == 1 for _, c in u.items())
    dec = decompose_into_irreducibles(datum, u)
    assert restrict(datum, dec) == u


def test_orbit_sum_of_a_wrong_rank_weight_raises():
    b2 = build_root_datum("B2")
    for weight in [(), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="rank is 2"):
            orbit_sum(b2, weight)


def test_irred_decomp_container():
    dec = IrredDecomp({(1, 0): 1, (0, 0): 2})
    assert str(dec) == "chi[1,0] + 2*chi[0,0]"
    assert dec.multiplicity((0, 0)) == 2
    assert dec.multiplicity((5, 5)) == 0
    assert len(dec) == 2
    assert list(dec.items()) == [((0, 0), 2), ((1, 0), 1)]
    assert dec.to_json() == {
        "entries": [{"w": [0, 0], "c": 2}, {"w": [1, 0], "c": 1}]
    }
    assert IrredDecomp([((1,), 1), ((1,), -1)]) == IrredDecomp({})
    assert str(IrredDecomp({})) == "0"
    with pytest.raises(ValueError):
        IrredDecomp({(-1, 0): 1})
    # dominance is checked before entries are summed
    with pytest.raises(ValueError):
        IrredDecomp([((-1,), 1), ((-1,), -1)])


def test_irred_decomp_never_equals_a_char_elt():
    # the two share one container class, but not equality or their names
    terms = {(1, 0): 1, (0, 0): 2}
    dec, elt = IrredDecomp(terms), CharElt(terms)
    assert dec != elt and elt != dec
    assert not dec == elt and not elt == dec
    assert repr(dec) == "IrredDecomp(chi[1,0] + 2*chi[0,0])"
    assert repr(elt) == "CharElt(e[1,0] + 2*e[0,0])"
    assert elt.to_json() == {"terms": dec.to_json()["entries"]}


def test_steinberg_weights_frozen():
    basis1 = steinberg_basis(A1)
    assert {lam for _, lam in basis1.items()} == {(0,), (1,)}
    basis2 = steinberg_basis(A2)
    assert {lam for _, lam in basis2.items()} == {
        (0, 0),
        (1, -1),
        (-1, 1),
        (1, 0),
        (0, 1),
        (1, 1),
    }
    # identity always gets the zero weight (no descents)
    group = weyl_group(A2)
    assert basis2.weight_of(group.identity) == (0, 0)
    assert basis2.element_of(group.identity) == CharElt.one(2)
    # an element of another group's W has no weight here
    stranger = weyl_group(A1).identity
    with pytest.raises(KeyError) as raised:
        basis2.weight_of(stranger)
    assert raised.value.args == (stranger,)


def test_steinberg_basis_verification_paths():
    # every construction is certified; verify, verify_extent and retries,
    # which had nothing left to change, are gone
    b2 = build_root_datum("B2")
    basis = steinberg_basis(b2)
    assert len(basis.weights) == len(basis.pivots) == 8
    with pytest.raises(TypeError, match="verify"):
        steinberg_basis(b2, verify=False)
    with pytest.raises(TypeError, match="verify_extent"):
        steinberg_basis(b2, verify_extent=2)
    again = steinberg_basis(b2)
    assert again.pivots == basis.pivots
    rng = random.Random("steinberg-options:B2")
    for _ in range(3):
        u = random_char_elt(rng, b2.rank, nterms=3, span=2)
        with pytest.raises(TypeError, match="retries"):
            decompose_over_invariants(b2, u, again, retries=0)
        assert decompose_over_invariants(b2, u, again) == decompose_over_invariants(b2, u, basis)
    assert len(steinberg_basis(build_root_datum("G2")).weights) == 12


def _patched_weights(monkeypatch, datum, weights):
    elements = weyl_group(datum).elements
    rows = tuple(zip(elements, weights))
    monkeypatch.setattr(repring, "_steinberg_weights", lambda d: rows)


def test_freeness_certificate_rejects_non_bases(monkeypatch):
    # s_2's weight (-1,1) shifted by alpha_1 = (2,-1) lands on s_1 s_2's (1,0)
    weights = [lam for _, lam in repring._steinberg_weights(A2)]
    assert weights[2] == (-1, 1) and weights[3] == (1, 0)
    weights[2] = (1, 0)
    # e^1 = (1 + e^2) / chi_1 is not an R(G)-combination of 1 and e^2
    _patched_weights(monkeypatch, A1, [(0,), (2,)])
    with pytest.raises(FreenessCheckFailed):
        steinberg_basis(A1)
    _patched_weights(monkeypatch, A2, weights)
    with pytest.raises(FreenessCheckFailed):
        steinberg_basis(A2)


def test_freeness_certificate_refuses_swapped_weights(monkeypatch):
    # the same monomials on other group elements are still a basis, but the
    # certificate no longer shows it: f_w = e^{-rho-lambda_w-w(rho)} follows
    # the weight put on w, so the swapped rows s_1 and s_2 s_1 each meet
    # chi_(1,1) in the other's column, a block of determinant chi_(1,1)^2 - 1,
    # which is no unit in R(G)
    weights = [lam for _, lam in repring._steinberg_weights(A2)]
    weights[1], weights[4] = weights[4], weights[1]
    _patched_weights(monkeypatch, A2, weights)
    with pytest.raises(FreenessCheckFailed, match=r"w = \[\[1\], \[2, 1\]\]"):
        steinberg_basis(A2)


def test_steinberg_hand_coordinates_rank_one():
    group = weyl_group(A1)
    s = group.simple(1)
    # 1/x = chi_1 * 1 - 1 * x
    coords = decompose_over_invariants(A1, monomial((-1,)))
    assert coords[group.identity] == IrredDecomp({(1,): 1})
    assert coords[s] == IrredDecomp({(0,): -1})
    # x^2 = -1 * 1 + chi_1 * x
    coords = decompose_over_invariants(A1, monomial((2,)))
    assert coords[group.identity] == IrredDecomp({(0,): -1})
    assert coords[s] == IrredDecomp({(1,): 1})


@pytest.mark.parametrize("name", sorted(FUNDAMENTAL_DIMS))
def test_decompose_reconstruct_round_trip(name):
    datum = build_root_datum(name)
    rng = random.Random(f"steinberg:{name}")
    if name == "D4":
        elements = [monomial((1, 0, 0, 0)), monomial((-1, 1, 0, -1), 2)]
    else:
        # span 1 on rank 3 keeps the strict characters of the coordinates small
        span = 2 if datum.rank <= 2 else 1
        elements = [random_char_elt(rng, datum.rank, nterms=3, span=span) for _ in range(5)]
    for u in elements:
        coords = decompose_over_invariants(datum, u)
        assert set(coords) == set(weyl_group(datum).elements)
        assert all(isinstance(dec, IrredDecomp) for dec in coords.values())
        assert reconstruct_over_invariants(datum, coords) == u


def test_decompose_is_rg_linear():
    chi = irreducible_character(A1, (1,))
    u = monomial((2,)) - monomial((-1,))
    coords_u = decompose_over_invariants(A1, u)
    coords_chi_u = decompose_over_invariants(A1, chi * u)
    group = weyl_group(A1)
    for w in group:
        lhs = restrict(A1, coords_chi_u[w])
        rhs = chi * restrict(A1, coords_u[w])
        assert lhs == rhs


def test_decompose_zero():
    coords = decompose_over_invariants(A2, CharElt.zero())
    assert all(not dec for dec in coords.values())
    assert reconstruct_over_invariants(A2, coords) == CharElt.zero()


# --- the Steinberg layer in R(G) ---------------------------------------------


def _stored_pairing(basis):
    """{(x, phi): top(e_x e^phi)} over the nonzero pairing entries a basis
    keeps: each column is one pivot's, with the pivot and its entries."""
    chi_0 = (0,) * basis.datum.rank
    out = {}
    for (v, phi, sign), column in zip(basis.pivots, basis.entries):
        out[v, phi] = IrredDecomp({chi_0: sign})
        for x, nu, s in column:
            out[x, phi] = IrredDecomp({nu: s})
    return out


@pytest.mark.parametrize("name", READ_OFF_GROUPS)
def test_sparse_pairing_matches_dense(name):
    datum = build_root_datum(name)
    basis = steinberg_basis(datum)
    phis = [phi for _, phi, _ in basis.pivots]
    assert len(set(phis)) == len(phis) == len(basis.weights)
    dense = {}
    for x, lam in basis.items():
        for phi in phis:
            entry = induce(datum, monomial(tuple(map(add, lam, phi))))
            if entry:
                dense[x, phi] = entry
    assert _stored_pairing(basis) == dense


def _rt_coordinates(datum, u, basis):
    """Reference: back-substitution on the R(T) remainder r, reading
    c_v = sign * top(r e^phi) off and removing restrict(c_v) e_v from r."""
    weight = dict(basis.weights)
    rest = u
    out = {}
    for v, phi, sign in basis.pivots:
        coeff = induce(datum, rest * monomial(phi, sign))
        rest = rest - restrict(datum, coeff) * monomial(weight[v])
        out[v] = coeff
    assert not rest
    return out


@st.composite
def _group_and_element(draw):
    datum = build_root_datum(draw(st.sampled_from(READ_OFF_GROUPS)))
    span = 2 if datum.rank <= 2 else 1
    weight = st.tuples(*[st.integers(-span, span)] * datum.rank)
    terms = draw(st.lists(st.tuples(weight, st.sampled_from([-2, -1, 1, 2])), min_size=1, max_size=3))
    return datum, CharElt(terms)


@settings(max_examples=100)
@given(_group_and_element())
@example((A2, CharElt([((1, 0), 1), ((1, 0), -1)])))  # zero, cancelled on construction
@example((A1, irreducible_character(A1, (2,)) - CharElt.one(1)))
def test_coordinates_match_rt_back_substitution(case):
    datum, u = case
    basis = repring._default_basis(datum)
    assert decompose_over_invariants(datum, u, basis) == _rt_coordinates(datum, u, basis)


@st.composite
def _group_and_two_decompositions(draw):
    datum = build_root_datum(draw(st.sampled_from(READ_OFF_GROUPS)))
    top_entry = 2 if datum.rank <= 2 else 1
    weight = st.tuples(*[st.integers(0, top_entry)] * datum.rank)
    decomposition = st.lists(st.tuples(weight, st.integers(-2, 2)), max_size=3).map(IrredDecomp)
    return datum, draw(decomposition), draw(decomposition)


@settings(max_examples=100)
@given(_group_and_two_decompositions())
@example((A2, IrredDecomp([((1, 1), 1), ((1, 1), -1)]), IrredDecomp({(1, 0): 1})))
@example((A1, IrredDecomp({(2,): 1, (0,): -1}), IrredDecomp({(1,): 1, (0,): 1})))
def test_tensor_product_matches_rt_product(case):
    datum, a, b = case
    expected = decompose_into_irreducibles(datum, restrict(datum, a) * restrict(datum, b))
    assert tensor_product(datum, a, b) == expected
    assert tensor_product(datum, b, a) == expected


def test_tensor_product_known_values():
    chi_0, chi_1 = IrredDecomp({(0,): 1}), IrredDecomp({(1,): 1})
    assert tensor_product(A1, chi_1, chi_1) == IrredDecomp({(2,): 1, (0,): 1})
    assert tensor_product(A1, IrredDecomp({(0,): -3}), chi_1) == IrredDecomp({(1,): -3})
    assert tensor_product(A1, chi_0, IrredDecomp({})) == IrredDecomp({})
    adjoint = IrredDecomp({(1, 1): 1})
    assert tensor_product(A2, adjoint, adjoint) == IrredDecomp(
        {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    )


F4_CARTAN = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
D5_CARTAN = (
    (2, -1, 0, 0, 0),
    (-1, 2, -1, 0, 0),
    (0, -1, 2, -1, -1),
    (0, 0, -1, 2, 0),
    (0, 0, -1, 0, 2),
)


@pytest.mark.parametrize(
    "cartan,order,nonzero", [(F4_CARTAN, 1152, 28234), (D5_CARTAN, 1920, 28496)], ids=["F4", "D5"]
)
def test_rank_four_and_five_cartan_bases_build(cartan, order, nonzero):
    basis = steinberg_basis(build_root_datum(cartan))
    assert len(basis.pivots) == len(basis.weights) == order
    assert len(_stored_pairing(basis)) == nonzero


# SHA-256 of the weights, pivots and entries of the nine named types, in the
# order of STEINBERG_DIGEST_TYPES, with each element written as its word
STEINBERG_DIGEST_TYPES = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"]
STEINBERG_DIGEST = "4d4a33f485ace65287d6e7f96bc5ed889dd7bf76906e949cb3108ce3188a9f84"


def test_steinberg_bases_match_their_golden_digest():
    digest = hashlib.sha256()
    for name in STEINBERG_DIGEST_TYPES:
        basis = steinberg_basis(build_root_datum(name))
        digest.update(repr([(w.word, lam) for w, lam in basis.weights]).encode())
        digest.update(repr([(v.word, phi, s) for v, phi, s in basis.pivots]).encode())
        digest.update(
            repr([[(x.word, nu, s) for x, nu, s in col] for col in basis.entries]).encode()
        )
    assert digest.hexdigest() == STEINBERG_DIGEST


@pytest.mark.parametrize(
    "cartan", [*READ_OFF_GROUPS, F4_CARTAN, D5_CARTAN], ids=[*READ_OFF_GROUPS, "F4", "D5"]
)
def test_every_pivot_is_the_diagonal_entry(cartan):
    # lambda_{w w0} = lambda_w + w(rho), and w w0 has the key -w(rho); so
    # f_w = e^{-rho-lambda_w-w(rho)} and top(e_w f_w) = sign(w w0) chi_0
    datum = build_root_datum(cartan)
    basis = repring._default_basis(datum)
    by_key = weyl_group(datum).by_key
    rho = datum.weyl_vector
    sign_w0 = (-1) ** datum.num_positive_roots
    for w, lam in basis.items():
        assert basis.weight_of(by_key[tuple(-c for c in w.key)]) == tuple(map(add, lam, w.key))
    assert len(basis.pivots) == len(basis.weights)
    for v, phi, sign in basis.pivots:
        lam = basis.weight_of(v)
        assert phi == tuple(-r - a - c for r, a, c in zip(rho, lam, v.key))
        assert sign == v.sign * sign_w0


def test_d4_pairing_folds_only_the_nonzero_entries(monkeypatch):
    d4 = build_root_datum("D4")
    weights = repring._steinberg_weights(d4)
    folds = []
    walk = repring._walk_to_dominant
    monkeypatch.setattr(repring, "_walk_to_dominant", lambda *args: folds.append(args) or walk(*args))
    pivots, entries = repring._pairing_pivots(d4, weights)
    # the diagonal is known without a fold (module docstring)
    assert len(pivots) == 192
    assert len(folds) == 624 == sum(map(len, entries))


def test_coordinates_restrict_nothing(monkeypatch):
    # strict mode reconstructs, and reconstruct_over_invariants restricts
    set_strict_default(False)
    d4 = build_root_datum("D4")
    rng = random.Random(1)
    elements = [random_char_elt(rng, d4.rank, 3, 3) for _ in range(3)]
    calls = []
    real = repring.restrict
    monkeypatch.setattr(repring, "restrict", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for u in elements:
        coords = decompose_over_invariants(d4, u)
        assert len(coords) == 192
    assert calls == []


def test_coordinates_fold_once_per_pivot(monkeypatch):
    # each column is one sum in R(T) and one fold, whatever its entries
    set_strict_default(False)
    d4 = build_root_datum("D4")
    rng = random.Random(1)
    elements = [random_char_elt(rng, d4.rank, 3, 3) for _ in range(3)]
    calls = []
    real = repring.induce
    monkeypatch.setattr(repring, "induce", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    for u in elements:
        calls.clear()
        decompose_over_invariants(d4, u)
        assert len(calls) == len(weyl_group(d4)) == 192


@pytest.mark.parametrize("position", ["middle", "last"])
@pytest.mark.parametrize("cartan", [F4_CARTAN, D5_CARTAN], ids=["F4", "D5"])
def test_rank_four_and_five_coordinates_are_rg_linear(cartan, position):
    # u = chi_nu e_w + e_x has the coordinates chi_nu at w and chi_0 at x
    set_strict_default(False)
    datum = build_root_datum(cartan)
    basis = repring._default_basis(datum)
    fundamentals = [tuple(int(i == j) for i in range(datum.rank)) for j in range(datum.rank)]
    nu = min(fundamentals, key=lambda lam: weyl_dimension(datum, lam))
    assert weyl_dimension(datum, nu) == {4: 26, 5: 10}[datum.rank]
    w = basis.weights[len(basis.weights) // 2 if position == "middle" else -1][0]
    x = basis.weights[1][0]
    u = irreducible_character(datum, nu) * basis.element_of(w) + basis.element_of(x)
    coords = decompose_over_invariants(datum, u, basis, strict=False)
    expected = {w: IrredDecomp({nu: 1}), x: IrredDecomp({(0,) * datum.rank: 1})}
    assert {v: dec for v, dec in coords.items() if dec} == expected
    assert len(coords) == len(basis.weights)


def test_coordinates_reject_a_basis_of_another_datum():
    b2_basis = steinberg_basis(build_root_datum("B2"))
    with pytest.raises(ValueError, match="another root datum"):
        decompose_over_invariants(A2, monomial((1, 0)), b2_basis)
    coords = {w: IrredDecomp({(0, 0): 1}) for w, _ in b2_basis.items()}
    with pytest.raises(ValueError, match="another root datum"):
        reconstruct_over_invariants(A2, coords, b2_basis)
    # a basis built from the same Cartan matrix is the datum's own
    a2_basis = steinberg_basis(build_root_datum(((2, -1), (-1, 2))))
    coords = decompose_over_invariants(A2, monomial((1, 0)), a2_basis)
    assert reconstruct_over_invariants(A2, coords, a2_basis) == monomial((1, 0))


def test_strict_coordinates_catch_a_wrong_stored_entry():
    b2 = build_root_datum("B2")
    basis = steinberg_basis(b2)
    n = next(n for n, column in enumerate(basis.entries) if column)
    (x, nu, s), *others = basis.entries[n]
    entries = list(basis.entries)
    entries[n] = ((x, nu, -s), *others)
    wrong = SteinbergBasis(basis.datum, basis.weights, basis.formula_tag, basis.pivots, tuple(entries))
    # e_x has the coordinate chi_0 at x alone, so the flipped entry moves the
    # coordinate of pivots[n]
    u = basis.element_of(x)
    with pytest.raises(InternalInvariantError, match="do not reconstruct u"):
        decompose_over_invariants(b2, u, wrong)
    set_strict_default(False)
    coords = decompose_over_invariants(b2, u, wrong)
    assert coords != decompose_over_invariants(b2, u, basis)
    assert reconstruct_over_invariants(b2, coords, wrong) != u


def _fold(terms):
    """The reference sum: CharElt.__add__ folded over the terms."""
    return reduce(add, terms, CharElt.zero())


@st.composite
def _group_and_coordinates(draw):
    # coordinates at a few elements of W, some holding an entry and its
    # negative, which cancel completely
    name = draw(st.sampled_from(READ_OFF_GROUPS))
    datum = build_root_datum(name)
    top_entry = 2 if datum.rank <= 2 else 1
    weight = st.tuples(*[st.integers(0, top_entry)] * datum.rank)
    coords = {}
    for w in draw(st.lists(st.sampled_from(weyl_group(datum).elements), min_size=1, max_size=3)):
        terms = draw(st.lists(st.tuples(weight, st.integers(-2, 2)), max_size=3))
        if terms and draw(st.booleans()):
            terms.append((terms[0][0], -terms[0][1]))
        coords[w] = IrredDecomp(terms)
    return datum, coords


@settings(max_examples=100)
@given(_group_and_coordinates())
@example((A1, {weyl_group(A1).identity: IrredDecomp([((1,), 1), ((1,), -1)])}))
# chi_2 - chi_0 cancels at the weight 0, and chi_(1,1) - 2 chi_0 on A2 too
@example((A1, {weyl_group(A1).longest: IrredDecomp({(2,): 1, (0,): -1})}))
@example((A2, {weyl_group(A2).identity: IrredDecomp({(1, 1): 1, (0, 0): -2})}))
def test_restrict_and_reconstruct_match_a_fold_by_plus(case):
    datum, coords = case
    basis = repring._default_basis(datum)
    for dec in coords.values():
        character = restrict(datum, dec)
        assert character == _fold(irreducible_character(datum, lam) * c for lam, c in dec.items())
        assert 0 not in character._terms.values()
    u = reconstruct_over_invariants(datum, coords, basis)
    assert u == _fold(restrict(datum, dec) * basis.element_of(w) for w, dec in coords.items())
    assert 0 not in u._terms.values()
