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
every output, string representative and quotient of every later pass stays.
So partial and partial_prime pack once, run a whole word on ints, and unpack
once; delta and delta_prime pack and unpack per call.

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
both. alternating_quotient never builds A(u), |W| terms per folded weight:
it finds the quotient's dominant coefficients from the top down
(Racah-Klimyk) and writes each on its W-orbit, on a packing of the same
radius taken over the quotient's highest weights and widened for its reads.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub
from typing import Callable, TypeVar

from .config import resolve_strict
from .charring import CharElt, _dominant_fold, _Packing, _string_quotient
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


@lru_cache(maxsize=None)
def _chamber(datum: RootDatum) -> tuple:
    """What alternating_quotient reads from W: the images w(omega_i) of the
    fundamental weights for every w, the pairs (rho - w(rho), sign w) for
    every w != 1, the largest |coordinate| of any rho - w(rho), and the
    coefficients of 2 rho-check, the column sums of the positive coroots."""
    rho = datum.weyl_vector
    group = weyl_group(datum)
    fundamentals = [tuple(int(i == j) for j in range(datum.rank)) for i in range(datum.rank)]
    images = tuple(tuple(w.act(omega) for omega in fundamentals) for w in group)
    shifts = tuple((tuple(map(sub, rho, w.key)), w.sign) for w in group if w.length)
    reach = max((abs(c) for shift, _ in shifts for c in shift), default=0)
    height = tuple(map(sum, zip(*(root.coroot for root in datum.positive_roots))))
    return images, shifts, reach, height


def alternating_quotient(datum: RootDatum, u: CharElt) -> CharElt:
    """A(u)/d, divided in the dominant chamber (Racah-Klimyk; Humphreys,
    Introduction to Lie Algebras and Representation Theory, section 24).

    The fold of e^rho u (charring._dominant_fold) gives the coefficient c_lam
    of e^lam in e^rho A(u) at each regular dominant lam, and the quotient is
    q = sum c_lam chi_{lam-rho}: W-invariant, so fixed by its dominant
    coefficients, which are found one weight at a time.

    - Recursion: q d = A(u), and e^rho d = sum of sign(w) e^{w(rho)}, so the
      coefficient at mu + rho, for dominant mu, reads
      q[mu] = c_{mu+rho} - sum over w != 1 of sign(w) q[mu + rho - w(rho)].
      rho - w(rho) is a nonzero sum of positive roots, so every weight read
      lies strictly above mu, and so does its dominant representative.
    - Candidates: the tops mu0 = lam - rho, closed under mu -> mu - beta over
      the positive roots beta, keeping dominant weights. Every dominant
      weight below a dominant mu0 is reached this way (Stembridge, "The
      partial order of dominant weights", 1998), so the candidates hold the
      dominant support of q, and a weight never written is 0.
    - Order: decreasing <mu, 2 rho-check>. The functional is 2 on every
      simple root, so every candidate above mu comes first; q[mu] is written
      on the whole W-orbit of mu, and each read finds its value.
    - Packing: q lies in the hull of the W-orbits of the tops, which the
      radius _Packing.around(tops, _coroot_bound) holds (charring module
      docstring); every read mu + rho - w(rho) adds rho - w(rho), so the
      radius adds its largest |coordinate| and no read aliases. Packing is
      linear, so w(mu) packs to sum mu_i key(w(omega_i)).
    """
    rho = datum.weyl_vector
    tops = {tuple(map(sub, lam, rho)): c for lam, c in _dominant_fold(datum, u).items()}
    if not tops:
        return CharElt.zero()
    images, shifts, reach, height = _chamber(datum)
    lowering = [root.weight_coords for root in datum.positive_roots]
    candidates = set(tops)
    frontier = list(tops)
    while frontier:
        found = []
        for mu in frontier:
            for beta in lowering:
                nu = tuple(map(sub, mu, beta))
                if nu not in candidates and min(nu) >= 0:
                    candidates.add(nu)
                    found.append(nu)
        frontier = found
    packing = _Packing(datum.rank, _Packing.around(tops, _coroot_bound(datum)).radius + reach)
    # column i: the keys of w(omega_i) over every w
    orbit_columns = [[packing.key(image) for image in column] for column in zip(*images)]
    odd = [packing.key(shift) for shift, sign in shifts if sign < 0]
    even = [packing.key(shift) for shift, sign in shifts if sign > 0]
    q: dict[int, int] = {}
    get = q.get
    for mu in sorted(candidates, key=lambda mu: sum(map(mul, mu, height)), reverse=True):
        k = packing.key(mu)
        v = tops.get(mu, 0) + sum([get(k + d, 0) for d in odd]) - sum([get(k + d, 0) for d in even])
        if v:
            keys = [0] * len(images)
            for m, column in zip(mu, orbit_columns):
                if m:
                    keys = list(map(add, keys, [m * key for key in column]))
            q.update(dict.fromkeys(keys, v))
    return CharElt._raw(packing.unpack(q))


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
