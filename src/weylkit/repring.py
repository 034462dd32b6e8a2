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
read-off, induce(e^{lambda_v - rho - lambda_{w w0}}), so it is 0 or one
signed irreducible +-chi_nu. It is nonzero exactly when lambda_v -
lambda_{w w0} is regular, off every wall <., beta-check> = 0 of a positive
root beta; steinberg_basis reads the zero entries off one column bitset per
wall and value, and folds only the others (2.2% of the |W|^2 entries on D4,
0.8% on D5). It then finds an order of pivots (v, w) in which column w has
exactly one nonzero entry left, +-chi_0 in row v, among the rows not yet
pivoted; with no such order it raises FreenessCheckFailed. So P is
unitriangular up to that order and invertible over R(G), the e_v are
R(G)-independent, and since Frac R(T) has degree |W| over Frac R(G), every u
has coordinates c with c P = b, where b_w = top(u f_w) lies in R(G);
c = b P^{-1} is then integral. This proves freeness for the convention
recorded in formula_tag, on every construction.

The basis keeps the other nonzero entries of each pivot's column, all in
rows pivoted earlier. decompose_over_invariants back-substitutes in R(G)
along the pivot order: induce is R(G)-linear, so b_phi = induce(u e^phi) =
sum over x of c_x P[x][phi], and the pivot (v, phi, sign) gives
c_v = sign * (b_phi - sum of c_x P[x][phi] over the kept entries). The
products are R(G) products by Brauer's formula (tensor_product), and an
entry +-chi_0 is a scaled addition; no remainder in R(T) is formed. The
coordinates reconstruct u by construction, and strict mode checks that they
do.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul, sub
from typing import Iterator, Mapping, Sequence

from .charring import CharElt, _add_scaled, _dominant_fold, _TermMap, is_weyl_invariant, monomial
from .config import resolve_strict
from .demazure import top
from .errors import FreenessCheckFailed, InternalInvariantError, NotInvariant
from .rootdata import RootDatum, Weight, _walk_to_dominant
from .weyl import WeylElt, orbit, weyl_group

__all__ = [
    "IrredDecomp",
    "SteinbergBasis",
    "weyl_dimension",
    "irreducible_character",
    "decompose_into_irreducibles",
    "restrict",
    "induce",
    "tensor_product",
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
    out: dict[Weight, int] = {}
    for lam, c in decomp._terms.items():
        _add_scaled(out, irreducible_character(datum, lam, strict=strict)._terms.items(), c)
    return CharElt._raw(out)


def induce(datum: RootDatum, u: CharElt, strict: bool | None = None) -> IrredDecomp:
    """Pushforward along T -> pt composed with decomposition: the image of u
    under the invariants projector, written in irreducibles. Left inverse of
    restrict. The multiplicities are read off J(e^rho u) (module docstring)
    without computing top(u); strict has nothing to check here."""
    rho = datum.weyl_vector
    return IrredDecomp._raw(
        {tuple(map(sub, lam, rho)): c for lam, c in _dominant_fold(datum, u).items()}
    )


def tensor_product(datum: RootDatum, a: IrredDecomp, b: IrredDecomp) -> IrredDecomp:
    """The product of a and b in R(G), by Brauer's formula (Klimyk 1968;
    Humphreys, Introduction to Lie Algebras and Representation Theory,
    section 24): chi_lambda chi_nu = induce(e^lambda chi_nu), since top is
    R(G)-linear and top(e^lambda) = chi_lambda for dominant lambda. So the
    product is
    induce(sum of a_lambda e^lambda * restrict(b)), one R(T) product and one
    fold, with b the factor of the smaller dimension sum; an entry
    a_0 chi_0 of a adds a_0 b.
    """
    if _dimension_sum(datum, a) < _dimension_sum(datum, b):
        a, b = b, a
    out: dict[Weight, int] = {}
    _add_product(datum, out, a._terms, b._terms, restrict(datum, b), 1)
    return IrredDecomp._raw(out)


def _dimension_sum(datum: RootDatum, decomp: IrredDecomp) -> int:
    # at least the number of weights of restrict(decomp)
    return sum(weyl_dimension(datum, lam) for lam in decomp._terms)


def _add_product(
    datum: RootDatum,
    acc: dict[Weight, int],
    a: Mapping[Weight, int],
    b: Mapping[Weight, int],
    character: CharElt,
    scale: int,
) -> None:
    """acc += scale * (a times b) in R(G), with character = restrict(b)
    (tensor_product): the entry at chi_0 of a is a scaled addition of b, and
    the others go through one R(T) product and one fold."""
    chi_0 = (0,) * datum.rank
    if chi_0 in a:
        _add_scaled(acc, b.items(), scale * a[chi_0])
    shifts = {lam: c for lam, c in a.items() if lam != chi_0}
    if shifts:
        _add_scaled(acc, induce(datum, CharElt._raw(shifts) * character)._terms.items(), scale)


def orbit_sum(datum: RootDatum, weight: Sequence[int]) -> CharElt:
    """Sum of e^nu over the Weyl orbit of the weight, each with coefficient 1."""
    return CharElt._raw({nu: 1 for nu in orbit(datum, tuple(weight))})


# triples (w, weight, sign): pivots (v, phi, sign) or entries (x, nu, s)
_Triples = tuple[tuple[WeylElt, Weight, int], ...]


@dataclass(frozen=True, eq=False)
class SteinbergBasis:
    """A monomial basis of R(T) as a free R(G)-module, indexed by W.

    pivots is the freeness certificate: triples (v, phi, sign) in elimination
    order with top(e_v e^phi) = sign * chi_0 and top(e_x e^phi) = 0 for every
    x pivoted after v (module docstring). entries[n] keeps the other nonzero
    entries of the column of pivots[n], as triples (x, nu, s) with
    top(e_x e^phi) = s * chi_nu; every such x was pivoted before v.
    """

    datum: RootDatum
    weights: tuple[tuple[WeylElt, Weight], ...]
    formula_tag: str
    pivots: _Triples
    entries: tuple[_Triples, ...]

    @cached_property
    def _weight_by_element(self) -> dict[WeylElt, Weight]:
        return dict(self.weights)

    def weight_of(self, w: WeylElt) -> Weight:
        return self._weight_by_element[w]

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
) -> tuple[_Triples, tuple[_Triples, ...]]:
    """A unitriangular pivot order of P[v][w] = top(e_v f_w) and the other
    nonzero entries of each pivot's column (SteinbergBasis), or
    FreenessCheckFailed when there is no such order.

    Only the nonzero entries are folded (module docstring): walls[beta] maps
    each value <lambda_{w w0}, beta-check> to the bitset of the columns w that
    take it, and the zero entries of row v are the columns in the bitsets at
    <lambda_v, beta-check>, over the positive roots beta.
    """
    group = weyl_group(datum)
    rho = datum.weyl_vector
    lam = dict(weights)
    opposite = [lam[group.multiply(w, group.longest)] for w, _ in weights]
    duals = [tuple(-r - c for r, c in zip(rho, mu)) for mu in opposite]
    coroots = [root.coroot for root in datum.positive_roots]
    walls: list[dict[int, int]] = []
    for f in coroots:
        wall: dict[int, int] = {}
        for k, mu in enumerate(opposite):
            n = sum(map(mul, f, mu))
            wall[n] = wall.get(n, 0) | 1 << k
        walls.append(wall)
    every_column = (1 << len(weights)) - 1
    simple_columns, bound = datum._simple_columns, datum.num_positive_roots
    # columns[k] holds the nonzero entries {row: (nu, s)} of column k, each
    # the one term s * chi_nu of top(e_row f_k)
    columns: list[dict[int, tuple[Weight, int]]] = [{} for _ in duals]
    rows: list[list[int]] = [[] for _ in weights]
    for i, (_, lam_v) in enumerate(weights):
        singular = 0
        for f, wall in zip(coroots, walls):
            singular |= wall.get(sum(map(mul, f, lam_v)), 0)
        regular = every_column & ~singular
        while regular:
            low = regular & -regular
            regular ^= low
            k = low.bit_length() - 1
            nu = list(map(sub, lam_v, opposite[k]))
            sign = -1 if _walk_to_dominant(nu, simple_columns, bound) & 1 else 1
            columns[k][i] = (tuple(map(sub, nu, rho)), sign)
            rows[i].append(k)
    chi_0 = (0,) * datum.rank
    open_rows = [len(col) for col in columns]
    resolved = [False] * len(weights)
    pivots: list[tuple[WeylElt, Weight, int]] = []
    entries: list[_Triples] = []
    # a column joins the queue when one unresolved row is left in it; the
    # loop also visits the columns it appends
    queue = [k for k, n in enumerate(open_rows) if n == 1]
    for k in queue:
        if open_rows[k] != 1:
            continue
        (i,) = [i for i in columns[k] if not resolved[i]]
        nu, sign = columns[k][i]
        if nu != chi_0:
            continue
        resolved[i] = True
        pivots.append((weights[i][0], duals[k], sign))
        entries.append(tuple((weights[x][0], mu, s) for x, (mu, s) in columns[k].items() if x != i))
        for k2 in rows[i]:
            open_rows[k2] -= 1
            if open_rows[k2] == 1:
                queue.append(k2)
    if len(pivots) != len(weights):
        stuck = [w.word for (w, _), done in zip(weights, resolved) if not done]
        raise FreenessCheckFailed(
            f"pairing is not unitriangular: no unit pivot for w = {list(map(list, stuck))}"
        )
    return tuple(pivots), tuple(entries)


def _warn_ignored(function: str, **params: object) -> None:
    """A DeprecationWarning naming the parameters a caller passed that do
    nothing."""
    names = [name for name, value in params.items() if value is not None]
    if names:
        warnings.warn(
            f"{function} ignores {' and '.join(names)}, which will be removed",
            DeprecationWarning,
            stacklevel=3,
        )


def steinberg_basis(
    datum: RootDatum,
    verify: bool | None = None,
    verify_extent: int | None = None,
) -> SteinbergBasis:
    """Construct the basis and certify that it is one.

    Every construction pairs the basis against f_w = e^{-rho-lambda_{w w0}},
    folds the nonzero entries of the pairing matrix and keeps them, and finds
    a unitriangular pivot order, which proves freeness (module docstring);
    FreenessCheckFailed when there is none. verify and verify_extent do
    nothing: passing either warns with DeprecationWarning.
    """
    _warn_ignored("steinberg_basis", verify=verify, verify_extent=verify_extent)
    weights = _steinberg_weights(datum)
    pivots, entries = _pairing_pivots(datum, weights)
    return SteinbergBasis(datum, weights, _FORMULA_TAG, pivots, entries)


@lru_cache(maxsize=None)
def _default_basis(datum: RootDatum) -> SteinbergBasis:
    return steinberg_basis(datum)


def decompose_over_invariants(
    datum: RootDatum,
    u: CharElt,
    basis: SteinbergBasis | None = None,
    retries: int | None = None,
) -> dict[WeylElt, IrredDecomp]:
    """Coordinates of u in the Steinberg basis, as virtual characters.

    Back-substitution in R(G) along the basis's pivot order (module
    docstring): each pivot (v, phi, sign) gives
    c_v = sign * (induce(u e^phi) - sum of c_x * P[x][phi]) over the entries
    the basis keeps for that column, with the products in R(G). Each c_v is
    exact, so the coordinates reconstruct u. Under strict mode they are
    reconstructed (reconstruct_over_invariants) and compared with u, and a
    mismatch raises InternalInvariantError. retries does nothing: passing it
    warns with DeprecationWarning.
    """
    _warn_ignored("decompose_over_invariants", retries=retries)
    if basis is None:
        basis = _default_basis(datum)
    chi_0 = (0,) * datum.rank
    out: dict[WeylElt, IrredDecomp] = {}
    for (v, phi, sign), column in zip(basis.pivots, basis.entries):
        acc = dict(induce(datum, u * monomial(phi))._terms)
        for x, nu, s in column:
            c_x = out[x]._terms
            if nu == chi_0:
                _add_scaled(acc, c_x.items(), -s)
            elif c_x:
                # the entry is the factor restricted: its character is cached,
                # while c_x's would need irreducibles that grow with u
                _add_product(datum, acc, c_x, {nu: 1}, irreducible_character(datum, nu), -s)
        out[v] = IrredDecomp._raw(acc if sign == 1 else {lam: -c for lam, c in acc.items()})
    if resolve_strict(None) and reconstruct_over_invariants(datum, out, basis) != u:
        raise InternalInvariantError("Steinberg coordinates do not reconstruct u")
    return {w: out[w] for w, _ in basis.weights}


def reconstruct_over_invariants(
    datum: RootDatum,
    coords: Mapping[WeylElt, IrredDecomp],
    basis: SteinbergBasis | None = None,
) -> CharElt:
    """Evaluate sum of restrict(coords[w]) * e_w; inverse of the decomposition."""
    if basis is None:
        basis = _default_basis(datum)
    out: dict[Weight, int] = {}
    for w, dec in coords.items():
        _add_scaled(out, (restrict(datum, dec) * basis.element_of(w))._terms.items())
    return CharElt._raw(out)
