"""Operators on R(T) spanned by the divided differences of group elements.

Every operator built from divided differences, reflections, and
multiplications is R(G)-linear, and the family {partial_w : w in W} is a free
R(T)-basis for those operators. to_basis computes the coordinates u_w of an
operator expression in that basis by rewriting alone: composing delta_j on
the left of m_u o partial_w follows the twisted Leibniz rule
delta_j o m_u = m_{s_j u} o delta_j + m_{delta'_j u} and the 0-Hecke rule
delta_j o partial_w = partial_{s_j w} if l(s_j w) > l(w), else partial_w;
s_j and delta'_j are R(T)-combinations of 1 and delta_j. Each coefficient is
computed with ring operations only, so the result is exact by construction.

The augmentation ideal is the annihilator of 1; membership is the vanishing
of the coefficient sum because every partial_w sends 1 to 1. Invariance of an
element under the ideal reduces to the simple-root operators delta'_j: every
longer composition ends in some delta'_j, and the length-one compositions are
exactly the delta'_j themselves.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .charring import CharElt, _add_scaled, is_weyl_invariant, monomial, weyl_act_simple
from .demazure import _walk, delta, delta_prime, partial, top
from .rootdata import RootDatum, Weight, _Record
from .weyl import WeylElt, weyl_group

__all__ = [
    "HeckeOp",
    "OpExpr",
    "apply",
    "to_basis",
    "in_augmentation_ideal",
    "is_ideal_invariant",
    "is_weyl_invariant",
]


class HeckeOp:
    """A finite R(T)-combination of the partial_w operators."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[WeylElt, CharElt]):
        self._coeffs = {w: u for w, u in coeffs.items() if u}

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HeckeOp):
            return self._coeffs == other._coeffs
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def items(self) -> Iterator[tuple[WeylElt, CharElt]]:
        return iter(sorted(self._coeffs.items(), key=lambda kv: (kv[0].length, kv[0].key)))

    def coefficient(self, w: WeylElt) -> CharElt:
        return self._coeffs.get(w, CharElt.zero())

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for w, u in self.items():
            word = ",".join(str(j) for j in w.word)
            parts.append(f"({u}) * D[{word}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"HeckeOp({str(self)})"

    def apply(self, datum: RootDatum, u: CharElt, strict: bool | None = None) -> CharElt:
        out: dict[Weight, int] = {}
        for w, coeff in self._coeffs.items():
            _add_scaled(out, (coeff * partial(datum, w, u, strict=strict))._terms.items())
        return CharElt._raw(out)

    def coefficient_sum(self) -> CharElt:
        out: dict[Weight, int] = {}
        for u in self._coeffs.values():
            _add_scaled(out, u._terms.items())
        return CharElt._raw(out)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"word": list(w.word), "coeff": u.to_json()} for w, u in self.items()
            ]
        }


class OpAtom(_Record):
    """One factor of an OpExpr: kind is "d", "dp", "w", "top" or "m".
    Equality and hash read every field, so an atom that holds a CharElt is
    unhashable, like the CharElt."""

    _FIELDS = ("kind", "index", "elt")

    def __init__(self, kind: str, index: int = 0, elt: CharElt | None = None):
        self._set(kind=kind, index=index, elt=elt)

    def apply(self, datum: RootDatum, u: CharElt, strict: bool | None = None) -> CharElt:
        if self.kind == "d":
            return delta(datum, self.index, u)
        if self.kind == "dp":
            return delta_prime(datum, self.index, u)
        if self.kind == "w":
            return weyl_act_simple(datum, self.index, u)
        if self.kind == "top":
            return top(datum, u, strict=strict)
        if self.kind == "m":
            assert self.elt is not None
            return self.elt * u
        raise ValueError(f"unknown operator atom {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "top":
            return "top"
        if self.kind == "m":
            return f"m[{self.elt}]"
        return f"{self.kind}[{self.index}]"


class OpExpr(_Record):
    """A composition of operator atoms; the rightmost factor acts first."""

    _FIELDS = ("atoms",)

    def __init__(self, atoms: tuple[OpAtom, ...]):
        self._set(atoms=atoms)

    @classmethod
    def d(cls, j: int) -> "OpExpr":
        return cls((OpAtom("d", j),))

    @classmethod
    def dp(cls, j: int) -> "OpExpr":
        return cls((OpAtom("dp", j),))

    @classmethod
    def w(cls, j: int) -> "OpExpr":
        return cls((OpAtom("w", j),))

    @classmethod
    def top(cls) -> "OpExpr":
        return cls((OpAtom("top"),))

    @classmethod
    def m(cls, elt: CharElt) -> "OpExpr":
        return cls((OpAtom("m", elt=elt),))

    def __mul__(self, other: "OpExpr") -> "OpExpr":
        if not isinstance(other, OpExpr):
            return NotImplemented
        return OpExpr(self.atoms + other.atoms)

    def apply(self, datum: RootDatum, u: CharElt, strict: bool | None = None) -> CharElt:
        out = u
        for atom in reversed(self.atoms):
            out = atom.apply(datum, out, strict=strict)
        return out

    def __str__(self) -> str:
        return "*".join(str(a) for a in self.atoms) if self.atoms else "id"


def apply(datum: RootDatum, op: "HeckeOp | OpExpr", u: CharElt, strict: bool | None = None) -> CharElt:
    return op.apply(datum, u, strict=strict)


def _sum_by_element(terms: Iterable[tuple[WeylElt, CharElt]]) -> HeckeOp:
    """The HeckeOp with coefficient at w the sum of the u of its pairs (w, u),
    added into one term dict per element."""
    out: dict[WeylElt, dict[Weight, int]] = {}
    for w, u in terms:
        _add_scaled(out.setdefault(w, {}), u._terms.items())
    return HeckeOp({w: CharElt._raw(acc) for w, acc in out.items()})


def _combine(*terms: tuple[CharElt, HeckeOp]) -> HeckeOp:
    """The sum of m_v o op over the given (v, op) pairs."""
    return _sum_by_element((w, v * u) for v, op in terms for w, u in op._coeffs.items())


def _delta_left(datum: RootDatum, j: int, op: HeckeOp) -> HeckeOp:
    """delta_j o op, by the twisted Leibniz and 0-Hecke rules."""
    datum._check_index(j)
    by_key = weyl_group(datum).by_key
    images: list[tuple[WeylElt, CharElt]] = []
    for w, u in op._coeffs.items():
        # up is the longer of w and s_j w; s_j w is longer when w(rho)_j > 0
        up = by_key[datum.reflect_simple(j, w.key)] if w.key[j - 1] > 0 else w
        images += [(up, weyl_act_simple(datum, j, u)), (w, delta_prime(datum, j, u))]
    return _sum_by_element(images)


def _compose_left(datum: RootDatum, atom: OpAtom, op: HeckeOp, strict: bool | None) -> HeckeOp:
    """atom o op, written again in the partial_w basis."""
    if atom.kind == "m":
        assert atom.elt is not None
        return _combine((atom.elt, op))
    if atom.kind == "top":
        w0 = weyl_group(datum).longest
        return _walk(datum, w0, op, lambda j, v: _delta_left(datum, j, v), strict)
    if atom.kind == "d":
        return _delta_left(datum, atom.index, op)
    if atom.kind in ("w", "dp"):
        j = atom.index
        d_op = _delta_left(datum, j, op)
        e_alpha = monomial(datum.simple_root(j).weight_coords)
        if atom.kind == "w":
            return _combine((e_alpha, op), (CharElt.one(datum.rank) - e_alpha, d_op))
        return _combine((e_alpha, d_op), (-e_alpha, op))
    raise ValueError(f"unknown operator atom {atom.kind!r}")


def to_basis(datum: RootDatum, op: OpExpr, strict: bool | None = None) -> HeckeOp:
    """Coordinates of an operator expression in the divided-difference basis.

    The atoms are composed on the left of the identity partial_e, rightmost
    first, and each product is rewritten at once into sum u_w partial_w:
    m_v multiplies every u_w by v; delta_j follows the twisted Leibniz and
    0-Hecke rules of the module docstring; s_j is
    m_{e^alpha_j} - m_{e^alpha_j - 1} o delta_j; delta'_j is
    m_{e^alpha_j} o delta_j - m_{e^alpha_j}; top composes delta_j along a
    reduced word of the longest element. Only ring operations are used, so
    nothing is solved. In strict mode top runs demazure's walk over the
    whole weak order instead: every element x is composed from each of its
    left descents j as delta_j o (value at s_j x), and two values that
    differ raise WordMismatch; agreement on every edge is agreement along
    every reduced word of the longest element.
    """
    result = HeckeOp({weyl_group(datum).identity: CharElt.one(datum.rank)})
    for atom in reversed(op.atoms):
        result = _compose_left(datum, atom, result, strict)
    return result


def in_augmentation_ideal(datum: RootDatum, op: "HeckeOp | OpExpr") -> bool:
    """Whether the operator annihilates 1."""
    if isinstance(op, HeckeOp):
        return not op.coefficient_sum()
    return not op.apply(datum, CharElt.one(datum.rank), strict=False)


def is_ideal_invariant(
    datum: RootDatum, u: CharElt
) -> tuple[bool, tuple[int, CharElt] | None]:
    """Whether every augmentation-ideal operator kills u; checked on the
    generators delta'_j. On failure returns the witness (j, delta'_j(u))."""
    for j in range(1, datum.rank + 1):
        image = delta_prime(datum, j, u)
        if image:
            return False, (j, image)
    return True, None
