"""The representation ring R(G) sitting inside R(T) as the Weyl invariants.

Irreducible characters come out of the longest-element divided difference
applied to a dominant monomial (with the antisymmetrization quotient as the
cross-checking route). Multiplicities of irreducibles are read off the Weyl
character formula (Brauer-Klimyk, Bott). With J the alternating sum over W,
J(e^rho u) = sum c_nu J(e^{nu+rho}) for u = sum c_nu e^nu; each J(e^{nu+rho})
is 0 when nu+rho is singular and sign(w) J(e^{lambda+rho}) when w(nu+rho) =
lambda+rho is dominant. Dividing by J(e^rho) gives top(u) = sum c_lambda
chi_lambda, and top(u) = u for invariant u.

The Steinberg basis {e_w} makes R(T) a free R(G)-module of rank |W|
(Steinberg, "On a theorem of Pittie", 1975). Pair it against
f_w = e^{-rho-lambda_{w w0}}: the entry P[v][w] = top(e_v f_w) is one
read-off, induce(e^{lambda_v - rho - lambda_{w w0}}). steinberg_basis finds
an order of pivots (v, w) in which column w has exactly one nonzero entry
left, +-chi_0 in row v, among the rows not yet pivoted; with no such order
it raises FreenessCheckFailed. So P is unitriangular up to that order and
invertible over R(G), the e_v are R(G)-independent, and since Frac R(T) has
degree |W| over Frac R(G), every u has coordinates c with c P = b, where
b_w = top(u f_w) lies in R(G); c = b P^{-1} is then integral. This proves
freeness for the convention recorded in formula_tag, on every construction.
decompose_over_invariants back-substitutes along the pivot order, so its
coordinates reconstruct u by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Iterator, Mapping, Sequence

from .charring import CharElt, _dominant_fold, _TermMap, is_weyl_invariant, monomial
from .demazure import top
from .errors import FreenessCheckFailed, InternalInvariantError, NotInvariant
from .rootdata import RootDatum, Weight
from .weyl import WeylElt, orbit, weyl_group

__all__ = [
    "IrredDecomp",
    "SteinbergBasis",
    "weyl_dimension",
    "irreducible_character",
    "decompose_into_irreducibles",
    "restrict",
    "induce",
    "orbit_sum",
    "steinberg_basis",
    "decompose_over_invariants",
    "reconstruct_over_invariants",
]

class IrredDecomp(_TermMap):
    """A finite integer combination of irreducible characters (virtual ok).

    It shares charring._TermMap, CharElt's container, with entries keyed by
    dominant highest weights; it never equals a CharElt.
    """

    __slots__ = ()
    _PREFIX = "chi"
    _JSON_KEY = "entries"

    def __init__(self, entries: Mapping[Sequence[int], int] | Sequence[tuple[Sequence[int], int]] = ()):
        entries = tuple(entries.items() if isinstance(entries, Mapping) else entries)
        for weight, _ in entries:
            if any(int(c) < 0 for c in weight):
                raise ValueError(f"highest weight {tuple(map(int, weight))} is not dominant")
        super().__init__(entries)

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(sorted(self._terms.items()))

    multiplicity = _TermMap.coefficient


def weyl_dimension(datum: RootDatum, weight: Sequence[int]) -> int:
    """Dimension of the irreducible with dominant highest weight, by the
    product over positive roots of <lambda+rho, a-check>/<rho, a-check>."""
    lam = tuple(weight)
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    shifted = tuple(c + r for c, r in zip(lam, datum.weyl_vector))
    num = 1
    den = 1
    for root in datum.positive_roots:
        num *= datum.pairing(shifted, root)
        den *= datum.pairing(datum.weyl_vector, root)
    if num % den:
        raise InternalInvariantError("Weyl dimension product failed to divide")
    return num // den


@lru_cache(maxsize=None)
def _irreducible_cached(datum: RootDatum, lam: Weight, strict: bool, method: str) -> CharElt:
    return top(datum, monomial(lam), strict=strict, method=method)


def irreducible_character(
    datum: RootDatum,
    weight: Sequence[int],
    strict: bool | None = None,
    method: str = "demazure",
) -> CharElt:
    """Character with highest weight `weight` (dominant case); for other
    weights the rho-shifted antisymmetry yields 0 or a signed character."""
    from .config import resolve_strict

    return _irreducible_cached(datum, tuple(weight), resolve_strict(strict), method)


def decompose_into_irreducibles(
    datum: RootDatum, u: CharElt, strict: bool | None = None
) -> IrredDecomp:
    """Write a Weyl-invariant element as an integer combination of
    irreducible characters (multiplicities may be negative). That is
    induce(u), since top(u) = u; strict has nothing to check here."""
    invariant, witness = is_weyl_invariant(datum, u)
    if not invariant:
        raise NotInvariant(f"not invariant under s_{witness[0]}")
    return induce(datum, u)


def restrict(datum: RootDatum, decomp: IrredDecomp, strict: bool | None = None) -> CharElt:
    """The character of a virtual representation, as an element of R(T)."""
    out = CharElt.zero()
    for lam, c in decomp.items():
        out = out + irreducible_character(datum, lam, strict=strict) * c
    return out


def induce(datum: RootDatum, u: CharElt, strict: bool | None = None) -> IrredDecomp:
    """Pushforward along T -> pt composed with decomposition: the image of u
    under the invariants projector, written in irreducibles. Left inverse of
    restrict. The multiplicities are read off J(e^rho u) (module docstring)
    without computing top(u); strict has nothing to check here."""
    rho = datum.weyl_vector
    return IrredDecomp._raw(
        {tuple(map(sub, lam, rho)): c for lam, c in _dominant_fold(datum, u).items()}
    )


def orbit_sum(datum: RootDatum, weight: Sequence[int]) -> CharElt:
    """Sum of e^nu over the Weyl orbit of the weight, each with coefficient 1."""
    return CharElt._raw({nu: 1 for nu in orbit(datum, tuple(weight))})


@dataclass(frozen=True, eq=False)
class SteinbergBasis:
    """A monomial basis of R(T) as a free R(G)-module, indexed by W.

    pivots is the freeness certificate: triples (v, phi, sign) in elimination
    order with top(e_v e^phi) = sign * chi_0 and top(e_x e^phi) = 0 for every
    x pivoted after v (module docstring).
    """

    datum: RootDatum
    weights: tuple[tuple[WeylElt, Weight], ...]
    formula_tag: str
    pivots: tuple[tuple[WeylElt, Weight, int], ...]

    def weight_of(self, w: WeylElt) -> Weight:
        for elt, lam in self.weights:
            if elt == w:
                return lam
        raise KeyError(w)

    def element_of(self, w: WeylElt) -> CharElt:
        return monomial(self.weight_of(w))

    def items(self) -> Iterator[tuple[WeylElt, Weight]]:
        return iter(self.weights)


_FORMULA_TAG = "lambda_w = w(-sum over right descents j of fundamental_j)"


def _steinberg_weights(datum: RootDatum) -> tuple[tuple[WeylElt, Weight], ...]:
    group = weyl_group(datum)
    rows: list[tuple[WeylElt, Weight]] = []
    for w in group.elements:
        descent_sum = [0] * datum.rank
        for j in range(1, datum.rank + 1):
            if group.right_descend(w, j).length < w.length:
                descent_sum[j - 1] -= 1
        rows.append((w, w.act(descent_sum)))
    return tuple(rows)


def _pairing_pivots(
    datum: RootDatum, weights: Sequence[tuple[WeylElt, Weight]]
) -> tuple[tuple[WeylElt, Weight, int], ...]:
    """A unitriangular pivot order of P[v][w] = top(e_v f_w), or
    FreenessCheckFailed when there is none."""
    group = weyl_group(datum)
    rho = datum.weyl_vector
    lam = dict(weights)
    duals = [
        tuple(-r - c for r, c in zip(rho, lam[group.multiply(w, group.longest)]))
        for w, _ in weights
    ]
    # columns[k] holds the nonzero entries {row: top(e_row f_k)} of column k
    columns: list[dict[int, IrredDecomp]] = [{} for _ in duals]
    rows: list[list[int]] = [[] for _ in weights]
    for i, (_, lam_v) in enumerate(weights):
        for k, phi in enumerate(duals):
            entry = induce(datum, monomial(tuple(a + b for a, b in zip(lam_v, phi))))
            if entry:
                columns[k][i] = entry
                rows[i].append(k)
    chi_0 = (0,) * datum.rank
    open_rows = [len(col) for col in columns]
    resolved = [False] * len(weights)
    pivots: list[tuple[WeylElt, Weight, int]] = []
    # a column joins the queue when one unresolved row is left in it; the
    # loop also visits the columns it appends
    queue = [k for k, n in enumerate(open_rows) if n == 1]
    for k in queue:
        if open_rows[k] != 1:
            continue
        (i,) = [i for i in columns[k] if not resolved[i]]
        sign = columns[k][i].multiplicity(chi_0)
        if len(columns[k][i]) != 1 or sign not in (1, -1):
            continue
        resolved[i] = True
        pivots.append((weights[i][0], duals[k], sign))
        for k2 in rows[i]:
            open_rows[k2] -= 1
            if open_rows[k2] == 1:
                queue.append(k2)
    if len(pivots) != len(weights):
        stuck = [w.word for (w, _), done in zip(weights, resolved) if not done]
        raise FreenessCheckFailed(
            f"pairing is not unitriangular: no unit pivot for w = {list(map(list, stuck))}"
        )
    return tuple(pivots)


def steinberg_basis(
    datum: RootDatum,
    verify: bool | None = None,
    verify_extent: int = 1,
) -> SteinbergBasis:
    """Construct the basis and certify that it is one.

    Every construction pairs the basis against f_w = e^{-rho-lambda_{w w0}}
    and finds a unitriangular pivot order of the pairing matrix, which proves
    freeness (module docstring); FreenessCheckFailed when there is none.
    verify and verify_extent have nothing left to do.
    """
    weights = _steinberg_weights(datum)
    return SteinbergBasis(datum, weights, _FORMULA_TAG, _pairing_pivots(datum, weights))


@lru_cache(maxsize=None)
def _default_basis(datum: RootDatum) -> SteinbergBasis:
    return steinberg_basis(datum)


def decompose_over_invariants(
    datum: RootDatum,
    u: CharElt,
    basis: SteinbergBasis | None = None,
    retries: int = 1,
) -> dict[WeylElt, IrredDecomp]:
    """Coordinates of u in the Steinberg basis, as virtual characters.

    Back-substitution along the basis's pivot order: with r the part of u
    not yet accounted for, each pivot (v, phi, sign) reads c_v = sign *
    top(r e^phi) off in irreducibles and removes restrict(c_v) * e_v from r.
    The rows pivoted later vanish in that column, so each c_v is exact, and r
    ends at 0. retries has nothing left to do.
    """
    if basis is None:
        basis = _default_basis(datum)
    weight = dict(basis.weights)
    rest = u
    out: dict[WeylElt, IrredDecomp] = {}
    for v, phi, sign in basis.pivots:
        coeff = induce(datum, rest * monomial(phi, sign))
        rest = rest - restrict(datum, coeff) * monomial(weight[v])
        out[v] = coeff
    if rest:
        raise InternalInvariantError("Steinberg back-substitution left a remainder")
    return {w: out[w] for w, _ in basis.weights}


def reconstruct_over_invariants(
    datum: RootDatum,
    coords: Mapping[WeylElt, IrredDecomp],
    basis: SteinbergBasis | None = None,
) -> CharElt:
    """Evaluate sum of restrict(coords[w]) * e_w; inverse of the decomposition."""
    if basis is None:
        basis = _default_basis(datum)
    out = CharElt.zero()
    for w, dec in coords.items():
        out = out + restrict(datum, dec) * basis.element_of(w)
    return out
