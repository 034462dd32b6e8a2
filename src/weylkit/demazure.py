"""Divided-difference (Demazure) operators on the character ring.

For a simple root alpha:

    delta_alpha(u)       = (u - e^{-alpha} s_alpha(u)) / (1 - e^{-alpha})
    delta_prime_alpha(u) = (u - s_alpha(u)) / (1 - e^{-alpha})

Both divisions are exact for every u. Both operators act on each alpha-string
rep + Z*alpha of u separately, and are computed in one pass over those
strings (charring._string_quotient): with q_p the coefficient at
rep + p*alpha and t0 = <rep, alpha-check> in {0, 1}, the numerator is
v_p = q_p - q_{-p-t0-1} for delta and v_p = q_p - q_{-p-t0} for delta_prime,
and the quotient is its top-down cumulative sum. The numerator sums to zero
on every string, because p -> -p - t0 - 1 (or -p - t0) permutes the
positions it runs over, so the division is exact and has nothing to check.

The passes run on packed integer weights (charring module docstring). The
packing's radius is sum c_i M_i, with M_i the largest |mu_i| over the
support of u and c_i the largest coefficient of alpha_i-check over the
positive coroots. It bounds |<mu, beta-check>| for every positive root beta,
so every coordinate in the convex hull of the W-orbit of the support, where
every output, string representative and quotient of every later pass stays. So partial,
partial_prime and alternating_quotient pack once, run a whole word or all
|positive roots| divisions on ints, and unpack once; delta and delta_prime
pack and unpack per call.

delta is idempotent with delta(1) = 1; delta_prime is idempotent with
delta_prime(1) = 0; delta = delta_prime + s.

Compositions along a reduced word depend only on the group element
(Matsumoto's theorem). Strict mode checks this in one walk over the elements
x below w in the left weak order (_walk): each x gets delta_j of the value at
s_j x from every left descent j, and any two that differ raise WordMismatch.
The paths from e to w through these edges are the reduced words of w, so
agreement on every edge gives, by induction on length, agreement along every
word. The walk takes |W| rank / 2 steps for the longest element, on the same
packing; hecke.to_basis runs it for top on operators.

The operator for the longest element projects onto Weyl invariants and
agrees with the quotient A(u)/d of the antisymmetrization by the Weyl
denominator (the Weyl character formula route); `top` can compute either or
both.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, TypeVar

from .config import resolve_strict
from .charring import CharElt, _Packing, _string_quotient, antisymmetrize
from .errors import InternalInvariantError, WordMismatch
from .rootdata import Root, RootDatum
from .weyl import WeylElt, _longest, weyl_group

__all__ = [
    "delta",
    "delta_prime",
    "partial",
    "partial_prime",
    "alternating_quotient",
    "top",
]

T = TypeVar("T")

# the routes of top
_METHODS = ("demazure", "weyl", "both")


def _simple_index(datum: RootDatum, alpha: int | Root) -> int:
    if isinstance(alpha, Root):
        ones = [i for i, c in enumerate(alpha.root_coords) if c]
        if len(ones) != 1 or alpha.root_coords[ones[0]] != 1:
            raise ValueError("divided differences accept simple roots only")
        return ones[0] + 1
    datum._check_index(alpha)
    return alpha


@lru_cache(maxsize=None)
def _coroot_bound(datum: RootDatum) -> tuple[int, ...]:
    """The largest coefficient of each simple coroot over the positive
    coroots: those of the highest coroot when the datum is irreducible."""
    return tuple(max(cs) for cs in zip(*(root.coroot for root in datum.positive_roots)))


def _packing(datum: RootDatum, u: CharElt) -> _Packing:
    # every W-image of a weight of u has coordinates +-<mu, beta-check>, and
    # the coefficients of beta-check are nonnegative and at most _coroot_bound
    return _Packing.around(u._terms, _coroot_bound(datum))


def _walk(datum: RootDatum, w: WeylElt, start: T, step: Callable[[int, T], T], strict: bool | None) -> T:
    """step(j1, step(j2, ... step(jl, start))) for a reduced word (j1, ..., jl)
    of w: the rightmost letter acts first.

    Not strict, the steps run along w.word. Strict, the walk visits every x
    below w in the left weak order, shortest first, and gives x the value
    step(j, value of s_j x) from every left descent j of x (those with
    l(s_j x) < l(x), read off as the negative coordinates of x(rho)). The
    paths from e to w through these edges are the reduced words of w, so if
    every x gets one value from all its descents, every reduced word of w
    gives the same composite; the first disagreement raises WordMismatch.
    """
    if not resolve_strict(strict):
        value = start
        for j in reversed(w.word):
            value = step(j, value)
        return value
    by_key = weyl_group(datum).by_key

    def descents(x: WeylElt) -> list[tuple[int, WeylElt]]:
        return [
            (j, by_key[datum.reflect_simple(j, x.key)])
            for j, c in enumerate(x.key, 1)
            if c < 0
        ]

    levels = [[w]]  # the elements below w, one list per length, down to [e]
    while levels[-1][0].length:
        below = {y.key: y for x in levels[-1] for _, y in descents(x)}
        levels.append(list(below.values()))
    values = {levels.pop()[0].key: start}
    for level in reversed(levels):
        above = {}
        for x in level:
            (j, y), *others = descents(x)
            value = step(j, values[y.key])
            for k, z in others:
                if step(k, values[z.key]) != value:
                    raise WordMismatch(
                        f"reduced words {(j, *y.word)} and {(k, *z.word)} of one group element disagree"
                    )
            above[x.key] = value
        values = above
    return values[w.key]


def _divided(
    datum: RootDatum, u: CharElt, shift: int, w: int | WeylElt, strict: bool | None = None
) -> CharElt:
    """delta (shift 1) or delta' (shift 0) of u for the simple index or along
    the group element w, on one packing (module docstring)."""
    packing = _packing(datum, u)

    def step(j: int, terms: dict[int, int]) -> dict[int, int]:
        return _string_quotient(terms, packing, datum.simple_root(j), shift)

    terms = packing.pack(u._terms)
    terms = step(w, terms) if isinstance(w, int) else _walk(datum, w, terms, step, strict)
    return CharElt._raw(packing.unpack(terms))


def delta(datum: RootDatum, alpha: int | Root, u: CharElt) -> CharElt:
    """The isobaric divided difference for a simple root (index or Root)."""
    return _divided(datum, u, 1, _simple_index(datum, alpha))


def delta_prime(datum: RootDatum, alpha: int | Root, u: CharElt) -> CharElt:
    """The bare divided difference; kills invariants, delta_prime(1) = 0."""
    return _divided(datum, u, 0, _simple_index(datum, alpha))


def partial(datum: RootDatum, w: WeylElt, u: CharElt, strict: bool | None = None) -> CharElt:
    """Composition of delta along (any) reduced word of w."""
    return _divided(datum, u, 1, w, strict)


def partial_prime(datum: RootDatum, w: WeylElt, u: CharElt, strict: bool | None = None) -> CharElt:
    """Composition of delta_prime along (any) reduced word of w."""
    return _divided(datum, u, 0, w, strict)


def alternating_quotient(datum: RootDatum, u: CharElt) -> CharElt:
    """A(u)/d: antisymmetrize, then strip one (1 - e^{-alpha}) per positive root.

    The factors are pairwise coprime, so peeling them one at a time is exact
    at every step; a NotDivisible here would mean a bug. Every quotient lies
    on the strings of its numerator, so in the hull that bounds the packing
    of A(u).
    """
    q = antisymmetrize(datum, u)
    packing = _packing(datum, q)
    terms = packing.pack(q._terms)
    for root in datum.positive_roots:
        terms = _string_quotient(terms, packing, root)
    return CharElt._raw(packing.unpack(terms))


def top(
    datum: RootDatum,
    u: CharElt,
    strict: bool | None = None,
    method: str = "demazure",
) -> CharElt:
    """The operator for the longest element: the projector onto invariants.

    Idempotent, R(G)-linear (top(chi * u) = chi * top(u) for invariant chi),
    fixes every Weyl-invariant element. method selects the composition route
    ("demazure"), the character-formula route A(u)/d ("weyl"), or "both",
    which cross-checks them and fails loudly on disagreement. The demazure
    route builds w0 from its key -rho, so it enumerates W only in strict mode.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "weyl":
        return alternating_quotient(datum, u)
    demazure_val = partial(datum, _longest(datum), u, strict)
    if method == "both" and demazure_val != (weyl_val := alternating_quotient(datum, u)):
        raise InternalInvariantError(
            f"top routes disagree: demazure {demazure_val} vs weyl {weyl_val}"
        )
    return demazure_val
