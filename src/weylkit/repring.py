"""The representation ring R(G) sitting inside R(T) as the Weyl invariants.

Irreducible characters come out of the longest-element divided difference
applied to a dominant monomial (with the antisymmetrization quotient as the
cross-checking route). Multiplicities of irreducibles are read off the Weyl
character formula (Brauer-Klimyk, Bott). With J the alternating sum over W,
J(e^rho u) = sum c_nu J(e^{nu+rho}) for u = sum c_nu e^nu; each J(e^{nu+rho})
is 0 when nu+rho is singular and sign(w) J(e^{lambda+rho}) when w(nu+rho) =
lambda+rho is dominant. Dividing by J(e^rho) gives top(u) = sum c_lambda
chi_lambda, and top(u) = u for invariant u.

The Steinberg basis {e_w} makes R(T) a free R(G)-module of rank |W|;
decompose_over_invariants computes coordinates in that basis through an exact
integer linear system over orbit-sum unknowns. Since several sign conventions
yield free bases, the convention here is recorded in formula_tag and freeness
is verified rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Sequence

from .charring import CharElt, monomial, weyl_act_simple
from .demazure import top
from .errors import (
    BoxExhausted,
    FreenessCheckFailed,
    InternalInvariantError,
    NotInvariant,
    SingularMatrix,
)
from .intlinalg import rational_inverse, solve_rational_unique
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

class IrredDecomp:
    """A finite integer combination of irreducible characters (virtual ok)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Sequence[int], int] | Sequence[tuple[Sequence[int], int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        clean: dict[Weight, int] = {}
        for weight, mult in items:
            key = tuple(int(c) for c in weight)
            if any(c < 0 for c in key):
                raise ValueError(f"highest weight {key} is not dominant")
            value = clean.get(key, 0) + int(mult)
            if value:
                clean[key] = value
            else:
                clean.pop(key, None)
        self._entries = clean

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IrredDecomp):
            return self._entries == other._entries
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(sorted(self._entries.items()))

    def multiplicity(self, weight: Sequence[int]) -> int:
        return self._entries.get(tuple(weight), 0)

    def __str__(self) -> str:
        if not self._entries:
            return "0"
        parts: list[str] = []
        for lam in sorted(self._entries, reverse=True):
            c = self._entries[lam]
            mono = "chi[" + ",".join(str(x) for x in lam) + "]"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IrredDecomp({str(self)})"

    def to_json(self) -> dict:
        return {
            "entries": [
                {"w": list(lam), "c": self._entries[lam]}
                for lam in sorted(self._entries)
            ]
        }


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


def _invariance_witness(datum: RootDatum, u: CharElt) -> int | None:
    for j in range(1, datum.rank + 1):
        if weyl_act_simple(datum, j, u) != u:
            return j
    return None


def decompose_into_irreducibles(
    datum: RootDatum, u: CharElt, strict: bool | None = None
) -> IrredDecomp:
    """Write a Weyl-invariant element as an integer combination of
    irreducible characters (multiplicities may be negative). That is
    induce(u), since top(u) = u; strict has nothing to check here."""
    witness = _invariance_witness(datum, u)
    if witness is not None:
        raise NotInvariant(f"not invariant under s_{witness}")
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
    terms: list[tuple[Weight, int]] = []
    for nu, c in u.items():
        lam, count = datum.reflect_to_dominant(tuple(a + r for a, r in zip(nu, rho)))
        if all(lam):
            terms.append((tuple(a - r for a, r in zip(lam, rho)), -c if count % 2 else c))
    return IrredDecomp(terms)


def orbit_sum(datum: RootDatum, weight: Sequence[int]) -> CharElt:
    """Sum of e^nu over the Weyl orbit of the weight, each with coefficient 1."""
    return CharElt._raw({nu: 1 for nu in orbit(datum, tuple(weight))})


@dataclass(frozen=True, eq=False)
class SteinbergBasis:
    """A monomial basis of R(T) as a free R(G)-module, indexed by W."""

    datum: RootDatum
    weights: tuple[tuple[WeylElt, Weight], ...]
    formula_tag: str

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
_AUTO_VERIFY_MAX_ORDER = 8


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


def steinberg_basis(
    datum: RootDatum,
    verify: bool | None = None,
    verify_extent: int = 1,
) -> SteinbergBasis:
    """Construct the basis; verify freeness on a weight box when requested.

    verify=None verifies automatically for |W| <= 8; larger groups need
    verify=True explicitly because the verification systems grow quickly.
    """
    basis = SteinbergBasis(datum, _steinberg_weights(datum), _FORMULA_TAG)
    seen = {lam for _, lam in basis.weights}
    if len(seen) != len(basis.weights):
        raise FreenessCheckFailed("basis weights collide")
    group = weyl_group(datum)
    if verify is None:
        verify = len(group) <= _AUTO_VERIFY_MAX_ORDER
    if verify:
        for point in product(range(-verify_extent, verify_extent + 1), repeat=datum.rank):
            try:
                coords = decompose_over_invariants(datum, monomial(point), basis)
            except (BoxExhausted, SingularMatrix) as exc:
                raise FreenessCheckFailed(
                    f"e^{point} did not decompose uniquely: {exc}"
                ) from exc
            if reconstruct_over_invariants(datum, coords, basis) != monomial(point):
                raise FreenessCheckFailed(f"reconstruction mismatch at e^{point}")
    return basis


@lru_cache(maxsize=None)
def _default_basis(datum: RootDatum) -> SteinbergBasis:
    return steinberg_basis(datum)


@lru_cache(maxsize=None)
def _simple_root_inverse(datum: RootDatum):
    # columns of the Cartan matrix are the simple roots in weight coordinates,
    # so this inverse converts weight coordinates to root coordinates
    return rational_inverse(datum.cartan)


def _dominance_below(datum: RootDatum, mu: Weight, tops: Sequence[Weight]) -> bool:
    """mu is below some top in dominance order (difference in N-span of simples)."""
    inv = _simple_root_inverse(datum)
    for nu in tops:
        diff = [a - b for a, b in zip(nu, mu)]
        coords = [sum(row[i] * diff[i] for i in range(len(diff))) for row in inv]
        if all(c.denominator == 1 and c >= 0 for c in coords):
            return True
    return False


def _dominant_candidates(datum: RootDatum, tops: Sequence[Weight]) -> list[Weight]:
    """All dominant weights below some member of `tops` in dominance order.

    Every such weight lies in the convex hull of the top's orbit, hence in its
    bounding box; enumerate dominant box points and filter.
    """
    rank = datum.rank
    hi = [0] * rank
    for nu in tops:
        for point in orbit(datum, nu):
            for i in range(rank):
                hi[i] = max(hi[i], point[i])
    cands = [
        mu
        for mu in product(*[range(0, h + 1) for h in hi])
        if _dominance_below(datum, mu, tops)
    ]
    return sorted(cands)


def decompose_over_invariants(
    datum: RootDatum,
    u: CharElt,
    basis: SteinbergBasis | None = None,
    retries: int = 1,
) -> dict[WeylElt, IrredDecomp]:
    """Coordinates of u in the Steinberg basis, as virtual characters.

    Unknowns are orbit-sum multiplicities over dominant weights drawn from a
    support box: the dominance down-set of the dominant representatives of
    supp(u) shifted by the basis weights. Coefficient matching then gives an
    integer linear system solved exactly. Cancellation chains can in
    principle push true coordinates outside that box, so on inconsistency the
    tops grow by rho and the solve reruns, `retries` extra times in all,
    before BoxExhausted.
    """
    if basis is None:
        basis = _default_basis(datum)
    rank = datum.rank
    support = list(u.support()) or [(0,) * rank]
    basis_weights = [lam for _, lam in basis.weights]
    base_tops = {(0,) * rank}
    for q in support:
        for lam in basis_weights:
            base_tops.add(
                datum.dominant_representative(tuple(a - b for a, b in zip(q, lam)))
            )
    rho = datum.weyl_vector
    tops = set(base_tops)
    for attempt in range(retries + 1):
        if attempt:
            # rho need not lie in the root lattice, so keep the earlier tops
            # alongside the shifted ones rather than replacing them
            tops |= {
                tuple(c + attempt * r for c, r in zip(nu, rho)) for nu in base_tops
            }
        candidates = _dominant_candidates(datum, sorted(tops))
        columns: list[tuple[int, Weight]] = [
            (w_idx, mu)
            for w_idx, _ in enumerate(basis.weights)
            for mu in candidates
        ]
        row_index: dict[Weight, int] = {}
        rows: list[dict[int, int]] = []

        def row_for(nu: Weight) -> dict[int, int]:
            idx = row_index.get(nu)
            if idx is None:
                idx = len(rows)
                row_index[nu] = idx
                rows.append({})
            return rows[idx]

        for col, (w_idx, mu) in enumerate(columns):
            lam = basis_weights[w_idx]
            for point in orbit(datum, mu):
                row_for(tuple(p + l for p, l in zip(point, lam)))[col] = 1
        for nu in support:
            row_for(tuple(nu))
        rhs = [0] * len(rows)
        for nu, c in u.items():
            rhs[row_index[nu]] = c
        solution = solve_rational_unique(rows, rhs, len(columns))
        if solution is None or any(s.denominator != 1 for s in solution):
            continue
        out: dict[WeylElt, IrredDecomp] = {}
        for w_idx, (w, _) in enumerate(basis.weights):
            coeff = CharElt.zero()
            base = w_idx * len(candidates)
            for off, mu in enumerate(candidates):
                m = int(solution[base + off])
                if m:
                    coeff = coeff + orbit_sum(datum, mu) * m
            out[w] = decompose_into_irreducibles(datum, coeff)
        return out
    raise BoxExhausted(
        f"no decomposition found within the padded box after {retries + 1} attempts"
    )


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
