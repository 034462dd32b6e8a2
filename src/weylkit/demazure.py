"""Divided-difference (Demazure) operators on the character ring.

For a simple root alpha:

    delta_alpha(u)       = (u - e^{-alpha} s_alpha(u)) / (1 - e^{-alpha})
    delta_prime_alpha(u) = (u - s_alpha(u)) / (1 - e^{-alpha})

Both divisions are exact for every u. Both operators act on each alpha-string
rep + Z*alpha of u separately, and are computed in one pass over those
strings (charring._string_quotient): with q_p the coefficient at
rep + p*alpha and t0 = <rep, alpha-check> in {0, 1}, the numerator is
v_p = q_p - q_{-p-t0-1} for delta and v_p = q_p - q_{-p-t0} for delta_prime,
and the quotient is its top-down cumulative sum. A residue there would be a
library bug and raises InternalInvariantError.

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
Compositions along a reduced word depend only on the group element, which
strict mode verifies by recomputing along every reduced word, one delta at a
time. The operator for the longest element projects onto Weyl invariants and
agrees with the quotient A(u)/d of the antisymmetrization by the Weyl
denominator (the Weyl character formula route); `top` can compute either or
both.
"""

from __future__ import annotations

from functools import lru_cache

from .config import resolve_strict
from .charring import CharElt, _Packing, _string_quotient, antisymmetrize
from .errors import InternalInvariantError, WordMismatch
from .rootdata import Root, RootDatum
from .weyl import WeylElt, weyl_group

__all__ = [
    "delta",
    "delta_prime",
    "partial",
    "partial_prime",
    "alternating_quotient",
    "top",
]


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


def _apply_word(datum: RootDatum, word: tuple[int, ...], u: CharElt, shift: int) -> CharElt:
    # word (j1, ..., jl) denotes op_{j1} o ... o op_{jl}: rightmost acts first
    packing = _packing(datum, u)
    terms = packing.pack(u._terms)
    for j in reversed(word):
        terms = _string_quotient(terms, packing, datum.simple_root(j), shift)
    return CharElt._raw(packing.unpack(terms))


def delta(datum: RootDatum, alpha: int | Root, u: CharElt) -> CharElt:
    """The isobaric divided difference for a simple root (index or Root)."""
    return _apply_word(datum, (_simple_index(datum, alpha),), u, 1)


def delta_prime(datum: RootDatum, alpha: int | Root, u: CharElt) -> CharElt:
    """The bare divided difference; kills invariants, delta_prime(1) = 0."""
    return _apply_word(datum, (_simple_index(datum, alpha),), u, 0)


def _compose(datum: RootDatum, word: tuple[int, ...], u: CharElt, op) -> CharElt:
    # word (j1, ..., jl) denotes op_{j1} o ... o op_{jl}: rightmost acts first
    v = u
    for j in reversed(word):
        v = op(datum, j, v)
    return v


def _along_words(
    datum: RootDatum, w: WeylElt, u: CharElt, op, strict: bool | None
) -> CharElt:
    if not resolve_strict(strict):
        return _compose(datum, w.word, u, op)
    words = weyl_group(datum).all_reduced_words(w)
    first = _compose(datum, words[0], u, op)
    for word in words[1:]:
        other = _compose(datum, word, u, op)
        if other != first:
            raise WordMismatch(
                f"words {words[0]} and {word} disagree: {first} vs {other}"
            )
    return first


def partial(datum: RootDatum, w: WeylElt, u: CharElt, strict: bool | None = None) -> CharElt:
    """Composition of delta along (any) reduced word of w."""
    if resolve_strict(strict):
        return _along_words(datum, w, u, delta, True)
    return _apply_word(datum, w.word, u, 1)


def partial_prime(datum: RootDatum, w: WeylElt, u: CharElt, strict: bool | None = None) -> CharElt:
    """Composition of delta_prime along (any) reduced word of w."""
    if resolve_strict(strict):
        return _along_words(datum, w, u, delta_prime, True)
    return _apply_word(datum, w.word, u, 0)


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
    which cross-checks them and fails loudly on disagreement.
    """
    if method not in ("demazure", "weyl", "both"):
        raise ValueError(f"unknown method {method!r}")
    demazure_val = None
    weyl_val = None
    if method in ("demazure", "both"):
        w0 = weyl_group(datum).longest
        demazure_val = partial(datum, w0, u, strict)
    if method in ("weyl", "both"):
        weyl_val = alternating_quotient(datum, u)
    if method == "demazure":
        return demazure_val  # type: ignore[return-value]
    if method == "weyl":
        return weyl_val  # type: ignore[return-value]
    if demazure_val != weyl_val:
        raise InternalInvariantError(
            f"top routes disagree: demazure {demazure_val} vs weyl {weyl_val}"
        )
    return demazure_val  # type: ignore[return-value]
