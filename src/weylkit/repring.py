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
(Steinberg, "On a theorem of Pittie", 1975), with e_w = e^{lambda_w} and
lambda_w = w(-sum of fundamental_j over the right descents j of w). Pair it
against f_w = e^{-rho-lambda_w-w(rho)}: the entry P[v][w] = top(e_v f_w) is
one read-off, induce(e^{lambda_v - rho - lambda_w - w(rho)}), so it is 0 or
one signed irreducible +-chi_nu. On the diagonal the weights cancel, and
-w(rho) = (w w0)(rho) is regular, so P[w][w] = sign(w w0) chi_0 =
sign(w) (-1)^N chi_0, with N the number of positive roots; nothing is
folded to know it. (The right descents of w w0 are those of w twisted by
-w0 and complemented, so lambda_{w w0} = lambda_w + w(rho), and f_w is
e^{-rho-lambda_{w w0}}.) An entry is nonzero exactly when lambda_v -
lambda_w - w(rho) is regular, off every wall <., beta-check> = 0 of a
positive root beta; steinberg_basis reads the zero entries off one column
bitset per wall and value, and folds only the other off-diagonal entries
(1.7% of the |W|^2 entries on D4). The diagonal pivots then need an order
in which each column w has no nonzero entry off the diagonal among the rows
not yet pivoted; with no such order it raises FreenessCheckFailed. So P is
unitriangular up to that order and invertible over R(G), the e_v are
R(G)-independent, and since Frac R(T) has degree |W| over Frac R(G), every u
has coordinates c with c P = b, where b_w = top(u f_w) lies in R(G);
c = b P^{-1} is then integral. This proves freeness of the weights
_steinberg_weights builds, on every construction. The proof holds for any
family of weights with such an order, but f_w follows the weight on w, so
the same monomials relabelled to other elements of W need not have one.

The basis keeps the other nonzero entries of each pivot's column, all in
rows pivoted earlier. decompose_over_invariants back-substitutes along the
pivot order: induce is R(G)-linear, so b_phi = induce(u e^phi) = sum over x
of c_x P[x][phi], and the pivot (v, phi, sign) gives
c_v = sign * (b_phi - sum of s c_x chi_nu over the kept entries (x, nu, s)).
By Brauer's formula, c chi_nu = induce(c' chi_nu), where c' is c with each
chi_lambda read as e^lambda (tensor_product). induce is Z-linear, so the
column is one sum in R(T) and one fold: c_v = induce(sign * (u e^phi - sum
over nu of shifts_nu' chi_nu)), with shifts_nu the R(G) sum of s c_x over
the entries at nu. The entry chi_0 = 1 needs no case of its own, as its
product is a shift. The coordinates reconstruct u by construction, and
strict mode checks that they do.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import add, mul, sub
from typing import Iterator, Mapping, Sequence

from .charring import CharElt, _add_scaled, _dominant_fold, _TermMap, is_weyl_invariant, monomial
from .config import resolve_strict
from .demazure import _METHODS, top
from .errors import FreenessCheckFailed, InternalInvariantError, NotInvariant
from .rootdata import RootDatum, Weight, _Record, _walk_to_dominant
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
    product over positive roots of <lambda+rho, a-check>/<rho, a-check>. A
    weight whose length is not the rank raises ValueError."""
    lam = datum._checked_weight(weight)
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
    if method in _METHODS and lam == (0,) * datum.rank:
        return CharElt.one(datum.rank)  # chi_0 = 1, with nothing to project
    return top(datum, monomial(lam), strict=strict, method=method)


def irreducible_character(
    datum: RootDatum,
    weight: Sequence[int],
    strict: bool | None = None,
    method: str = "demazure",
) -> CharElt:
    """Character with highest weight `weight` (dominant case); for other
    weights the rho-shifted antisymmetry yields 0 or a signed character. A
    weight whose length is not the rank raises ValueError."""
    return _irreducible_cached(datum, datum._checked_weight(weight), resolve_strict(strict), method)


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
    section 24): chi_lambda chi_nu = induce(e^lambda chi_nu), since induce is
    R(G)-linear and induce(e^lambda) = chi_lambda for dominant lambda. So the
    product is induce(sum of a_lambda e^lambda * restrict(b)), one R(T)
    product and one fold, with b the factor of the smaller dimension sum.
    """
    if _dimension_sum(datum, a) < _dimension_sum(datum, b):
        a, b = b, a
    return induce(datum, CharElt._raw(a._terms) * restrict(datum, b))


def _dimension_sum(datum: RootDatum, decomp: IrredDecomp) -> int:
    # at least the number of weights of restrict(decomp)
    return sum(weyl_dimension(datum, lam) for lam in decomp._terms)


def orbit_sum(datum: RootDatum, weight: Sequence[int]) -> CharElt:
    """Sum of e^nu over the Weyl orbit of the weight, each with coefficient 1;
    ValueError for a weight whose length is not the rank, as in orbit."""
    return CharElt._raw({nu: 1 for nu in orbit(datum, weight)})


# triples (w, weight, sign): pivots (v, phi, sign) or entries (x, nu, s)
_Triples = tuple[tuple[WeylElt, Weight, int], ...]


class SteinbergBasis(_Record):
    """A monomial basis of R(T) as a free R(G)-module, indexed by W.

    pivots is the freeness certificate: triples (v, phi, sign) in elimination
    order, with e^phi = f_v = e^{-rho-lambda_v-v(rho)}, top(e_v e^phi) =
    sign * chi_0 and sign = sign(v) (-1)^N, and top(e_x e^phi) = 0 for every
    x pivoted after v (module docstring). entries[n] keeps the other nonzero
    entries of the column of pivots[n], as triples (x, nu, s) with
    top(e_x e^phi) = s * chi_nu; every such x was pivoted before v. A basis
    equals only itself.
    """

    _FIELDS = ("datum", "weights", "formula_tag", "pivots", "entries")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        datum: RootDatum,
        weights: tuple[tuple[WeylElt, Weight], ...],
        formula_tag: str,
        pivots: _Triples,
        entries: tuple[_Triples, ...],
    ):
        self._set(
            datum=datum, weights=weights, formula_tag=formula_tag, pivots=pivots, entries=entries
        )

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
    # the right descents of w are the left descents of w^-1: the negative
    # coordinates of its key w^-1(rho)
    group = weyl_group(datum)
    return tuple(
        (w, w.act([-1 if c < 0 else 0 for c in group.inverse(w).key])) for w in group.elements
    )


def _pairing_pivots(
    datum: RootDatum, weights: Sequence[tuple[WeylElt, Weight]]
) -> tuple[_Triples, tuple[_Triples, ...]]:
    """A unitriangular pivot order of P[v][w] = top(e_v f_w) and the other
    nonzero entries of each pivot's column (SteinbergBasis), or
    FreenessCheckFailed when there is no such order.

    The pivot of column w is its diagonal entry, sign(w) (-1)^N chi_0 with N
    the number of positive roots (module docstring), so the order is a
    topological sort: column w is ready once every other row with a nonzero
    entry in it is pivoted. Only the nonzero off-diagonal entries are folded:
    walls[beta] maps each value <lambda_w + w(rho), beta-check> to the bitset
    of the columns w that take it, and the zero entries of row v are the
    columns in the bitsets at <lambda_v, beta-check>, over the positive roots
    beta.
    """
    rho = datum.weyl_vector
    # f_w = e^{-rho - opposite[w]}
    opposite = [tuple(map(add, lam, w.key)) for w, lam in weights]
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
    # columns[k] holds the nonzero off-diagonal entries {row: (nu, s)} of
    # column k, each the one term s * chi_nu of top(e_row f_k)
    columns: list[dict[int, tuple[Weight, int]]] = [{} for _ in weights]
    rows: list[list[int]] = [[] for _ in weights]
    for i, (_, lam_v) in enumerate(weights):
        singular = 0
        for f, wall in zip(coroots, walls):
            singular |= wall.get(sum(map(mul, f, lam_v)), 0)
        regular = (every_column ^ 1 << i) & ~singular
        while regular:
            low = regular & -regular
            regular ^= low
            k = low.bit_length() - 1
            nu = list(map(sub, lam_v, opposite[k]))
            sign = -1 if _walk_to_dominant(nu, simple_columns, bound) & 1 else 1
            columns[k][i] = (tuple(map(sub, nu, rho)), sign)
            rows[i].append(k)
    sign_w0 = -1 if datum.num_positive_roots & 1 else 1
    # open_rows[k] counts the rows of column k's entries not yet pivoted;
    # column k is ready at 0, and the loop also visits the columns it appends
    open_rows = [len(col) for col in columns]
    pivots: list[tuple[WeylElt, Weight, int]] = []
    entries: list[_Triples] = []
    queue = [k for k, n in enumerate(open_rows) if not n]
    for k in queue:
        w = weights[k][0]
        pivots.append((w, tuple(-r - c for r, c in zip(rho, opposite[k])), w.sign * sign_w0))
        entries.append(tuple((weights[x][0], nu, s) for x, (nu, s) in columns[k].items()))
        for k2 in rows[k]:
            open_rows[k2] -= 1
            if not open_rows[k2]:
                queue.append(k2)
    if len(pivots) != len(weights):
        stuck = [w.word for (w, _), n in zip(weights, open_rows) if n]
        raise FreenessCheckFailed(
            f"pairing is not unitriangular: the columns of w = {list(map(list, stuck))} never clear"
        )
    return tuple(pivots), tuple(entries)


def steinberg_basis(datum: RootDatum) -> SteinbergBasis:
    """Construct the basis and certify that it is one.

    Every construction pairs the basis against f_w = e^{-rho-lambda_w-w(rho)},
    folds the nonzero off-diagonal entries of the pairing matrix and keeps
    them, and orders the diagonal pivots unitriangularly, which proves
    freeness (module docstring); FreenessCheckFailed when there is no order.
    """
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
    strict: bool | None = None,
) -> dict[WeylElt, IrredDecomp]:
    """Coordinates of u in the Steinberg basis, as virtual characters.

    Back-substitution along the basis's pivot order (module docstring): the
    pivot (v, phi, sign) gives c_v = induce(sign * (u e^phi - sum over nu of
    shifts_nu' chi_nu)), one R(T) sum and one fold, where shifts_nu is the
    sum of s * c_x over the entries (x, nu, s) the basis keeps for that
    column, and shifts_nu' reads each chi_lambda of it as e^lambda. Each c_v
    is exact, so the coordinates reconstruct u. Under strict mode they are
    reconstructed (reconstruct_over_invariants) and compared with u, and a
    mismatch raises InternalInvariantError. A basis of another root datum
    raises ValueError.
    """
    basis = _basis_of(datum, basis)
    out: dict[WeylElt, IrredDecomp] = {}
    terms = u._terms.items()
    for (v, phi, sign), column in zip(basis.pivots, basis.entries):
        shifts: dict[Weight, dict[Weight, int]] = {}
        for x, nu, s in column:
            if c_x := out[x]._terms:
                _add_scaled(shifts.setdefault(nu, {}), c_x.items(), s)
        acc = {tuple(map(add, mu, phi)): sign * c for mu, c in terms}
        for nu, shift in shifts.items():
            # the entry is the factor restricted: its character is cached,
            # while c_x's would need irreducibles that grow with u
            product = CharElt._raw(shift) * irreducible_character(datum, nu)
            _add_scaled(acc, product._terms.items(), -sign)
        out[v] = induce(datum, CharElt._raw(acc))
    if resolve_strict(strict) and reconstruct_over_invariants(datum, out, basis) != u:
        raise InternalInvariantError("Steinberg coordinates do not reconstruct u")
    return {w: out[w] for w, _ in basis.weights}


def reconstruct_over_invariants(
    datum: RootDatum,
    coords: Mapping[WeylElt, IrredDecomp],
    basis: SteinbergBasis | None = None,
) -> CharElt:
    """Evaluate sum of restrict(coords[w]) * e_w; inverse of the
    decomposition. A basis of another root datum raises ValueError."""
    basis = _basis_of(datum, basis)
    out: dict[Weight, int] = {}
    for w, dec in coords.items():
        _add_scaled(out, (restrict(datum, dec) * basis.element_of(w))._terms.items())
    return CharElt._raw(out)


def _basis_of(datum: RootDatum, basis: SteinbergBasis | None) -> SteinbergBasis:
    if basis is None:
        return _default_basis(datum)
    if basis.datum != datum:
        raise ValueError("the basis belongs to another root datum")
    return basis
