"""Textbook R(T) computations that only the tests use, each independent of
the code it checks: long division by any element, the Weyl action through
WeylElt.act, the alternant A(u) as the sum over W, and the Weyl denominator
d as the product of its factors. alternating_quotient and the divided
differences are checked against quotients these build."""

from __future__ import annotations

from operator import add

from weylkit.charring import CharElt, _add_scaled, monomial
from weylkit.errors import NotDivisible
from weylkit.rootdata import RootDatum, Weight
from weylkit.weyl import WeylElt, weyl_group


def divide_exact_general(numerator: CharElt, divisor: CharElt) -> CharElt:
    """Exact division by an arbitrary nonzero element, or NotDivisible.

    Long division on the lexicographically leading terms. Support bounds of a
    true quotient follow from additivity of componentwise extremes under
    multiplication, so any generated term outside that box proves
    indivisibility; this keeps termination unconditional.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero element")
    if not numerator:
        return CharElt.zero()
    rank = len(next(iter(divisor.items()))[0])
    n_sup = numerator.support()
    d_sup = divisor.support()
    lo = tuple(
        min(m[i] for m in n_sup) - min(m[i] for m in d_sup) for i in range(rank)
    )
    hi = tuple(
        max(m[i] for m in n_sup) - max(m[i] for m in d_sup) for i in range(rank)
    )
    lead_d = max(divisor._terms)
    cd = divisor._terms[lead_d]
    rem = dict(numerator._terms)
    quot: dict[Weight, int] = {}
    while rem:
        lead_r = max(rem)
        cr = rem[lead_r]
        if cr % cd:
            raise NotDivisible("leading coefficient does not divide")
        shift = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(s < l or s > h for s, l, h in zip(shift, lo, hi)):
            raise NotDivisible("quotient support escaped its bound")
        q = cr // cd
        quot[shift] = q
        _add_scaled(rem, ((tuple(map(add, shift, mu)), c) for mu, c in divisor._terms.items()), -q)
    return CharElt._raw(quot)


def act(w: WeylElt, u: CharElt) -> CharElt:
    """w(e^mu) = e^{w mu}, extended additively."""
    return CharElt((w.act(mu), c) for mu, c in u.items())


def alternant(datum: RootDatum, u: CharElt) -> CharElt:
    """A(u) = sum over w of sign(w) e^{-rho} w(e^{rho} u), term by term."""
    rho = monomial(datum.weyl_vector)
    rho_inv = monomial(tuple(-c for c in datum.weyl_vector))
    out = CharElt.zero()
    for w in weyl_group(datum):
        out = out + w.sign * (rho_inv * act(w, rho * u))
    return out


def denominator(datum: RootDatum) -> CharElt:
    """d = the product over the positive roots beta of (1 - e^{-beta})."""
    one = CharElt.one(datum.rank)
    d = one
    for root in datum.positive_roots:
        d = d * (one - monomial(tuple(-c for c in root.weight_coords)))
    return d
