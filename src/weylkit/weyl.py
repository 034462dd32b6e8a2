"""Weyl group enumeration and action.

Elements are enumerated once per root datum by breadth-first closure from the
identity under right multiplication by simple reflections. Because rho is
regular, the image w(rho) identifies w uniquely, so it serves as the element
key; BFS depth equals Coxeter length. Each element also caches its matrix on
fundamental-weight coordinates, making the action O(rank^2) per weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InternalInvariantError, SafetyBoundExceeded
from .intlinalg import mat_mul
from .rootdata import RootDatum, Weight

__all__ = [
    "WeylElt",
    "WeylGroup",
    "weyl_group",
    "orbit",
]

ELEMENT_CAP = 10**6


@dataclass(frozen=True)
class WeylElt:
    """A Weyl group element; equality and hash go through the key w(rho)."""

    key: Weight
    word: tuple[int, ...] = field(compare=False)
    length: int = field(compare=False)
    matrix: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def sign(self) -> int:
        """Determinant of the element: (-1) ** length."""
        return -1 if self.length % 2 else 1

    def act(self, weight: Sequence[int]) -> Weight:
        return tuple(sum(c * x for c, x in zip(row, weight)) for row in self.matrix)

    def __repr__(self) -> str:
        return f"WeylElt({list(self.word)})"


class WeylGroup:
    """The full Weyl group of a root datum, enumerated and indexed."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        rank = datum.rank
        rho = datum.weyl_vector
        refl = [datum.reflection_matrix(j) for j in range(1, rank + 1)]
        ident_mat = tuple(
            tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)
        )
        identity = WeylElt(rho, (), 0, ident_mat)
        by_key: dict[Weight, WeylElt] = {rho: identity}
        # right[(key of w, j)] = key of w * s_j
        right: dict[tuple[Weight, int], Weight] = {}
        frontier = [identity]
        while frontier:
            new: list[WeylElt] = []
            for w in frontier:
                for j in range(1, rank + 1):
                    mat = tuple(map(tuple, mat_mul(w.matrix, refl[j - 1])))
                    key = tuple(sum(row) for row in mat)  # mat . rho with rho = (1,..,1)
                    right[(w.key, j)] = key
                    if key not in by_key:
                        elt = WeylElt(key, w.word + (j,), w.length + 1, mat)
                        by_key[key] = elt
                        new.append(elt)
            if len(by_key) > ELEMENT_CAP:
                raise SafetyBoundExceeded(f"Weyl group exceeds {ELEMENT_CAP} elements")
            frontier = new
        self.identity = identity
        self.by_key = by_key
        self._right = right
        self.elements: tuple[WeylElt, ...] = tuple(
            sorted(by_key.values(), key=lambda w: (w.length, w.key))
        )
        top_len = self.elements[-1].length
        longest = [w for w in self.elements if w.length == top_len]
        if len(longest) != 1:
            raise InternalInvariantError("longest element is not unique")
        self.longest = longest[0]
        self._words_memo: dict[Weight, tuple[tuple[int, ...], ...]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[WeylElt]:
        return iter(self.elements)

    @property
    def rank(self) -> int:
        return self.datum.rank

    def simple(self, j: int) -> WeylElt:
        return self.by_key[self.datum.reflect_simple(j, self.datum.weyl_vector)]

    def right_descend(self, w: WeylElt, j: int) -> WeylElt:
        """w * s_j as a group element."""
        return self.by_key[self._right[(w.key, j)]]

    def multiply(self, a: WeylElt, b: WeylElt) -> WeylElt:
        return self.by_key[a.act(b.key)]

    def inverse(self, w: WeylElt) -> WeylElt:
        v = self.datum.weyl_vector
        for j in w.word:
            v = self.datum.reflect_simple(j, v)
        return self.by_key[v]

    def all_reduced_words(self, w: WeylElt) -> tuple[tuple[int, ...], ...]:
        """Every reduced word of w, via the right weak order predecessor DAG.

        A word ends in j exactly when l(w s_j) = l(w) - 1, and its prefix is
        then a reduced word of w s_j; recursing over all such j is exhaustive.
        """
        memo = self._words_memo
        cached = memo.get(w.key)
        if cached is not None:
            return cached
        if w.length == 0:
            result: tuple[tuple[int, ...], ...] = ((),)
        else:
            acc: list[tuple[int, ...]] = []
            for j in range(1, self.rank + 1):
                v = self.right_descend(w, j)
                if v.length == w.length - 1:
                    acc.extend(prefix + (j,) for prefix in self.all_reduced_words(v))
            result = tuple(sorted(acc))
        memo[w.key] = result
        return result


@lru_cache(maxsize=None)
def weyl_group(datum: RootDatum) -> WeylGroup:
    return WeylGroup(datum)


def orbit(datum: RootDatum, weight: Sequence[int]) -> tuple[Weight, ...]:
    """The Weyl orbit of a weight, sorted lexicographically."""
    return _orbit_cached(datum, tuple(weight))


@lru_cache(maxsize=65536)
def _orbit_cached(datum: RootDatum, start: Weight) -> tuple[Weight, ...]:
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for lam in frontier:
            for j in range(1, datum.rank + 1):
                img = datum.reflect_simple(j, lam)
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return tuple(sorted(seen))
