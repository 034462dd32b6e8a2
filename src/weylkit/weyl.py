"""Weyl group enumeration and action.

Because rho is regular, the image w(rho) identifies w uniquely, so it is
the element's key, and the key is all an element holds besides its word: j
is a left descent of w (l(s_j w) < l(w)) exactly when the j-th coordinate of
w(rho) is negative, and s_j w has the key s_j(w(rho)). The word of w is its
lexicographically first reduced word (_word): the first negative coordinate
j of the key, then the word of s_j w. w acts on a weight through the simple
reflections of its word; no element holds a matrix.

The group is enumerated once per root datum, one length at a time from the
identity: the keys of length l + 1 are the s_j(x) over the keys x of length
l with x_j > 0. Its order is known in closed form (_order) before that
starts, and a group of more than ELEMENT_CAP elements is refused then. The
longest element has the key -rho, so its word needs no enumeration
(_longest).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from .errors import SafetyBoundExceeded
from .rootdata import RootDatum, Weight, _Record, _walk_to_dominant

__all__ = [
    "WeylElt",
    "WeylGroup",
    "weyl_group",
    "orbit",
]

ELEMENT_CAP = 10**6


class WeylElt(_Record):
    """A Weyl group element: its key w(rho) and its word (module docstring).

    Equality and hash go through the key. columns is the datum's
    RootDatum._simple_columns, shared by every element, which act reads.
    """

    def __init__(
        self,
        key: Weight,
        word: tuple[int, ...],
        columns: tuple[tuple[tuple[int, int], ...], ...],
    ):
        self._set(key=key, word=word, columns=columns)

    # elements key the coefficient dicts of HeckeOp and of Steinberg
    # coordinates, so they compare their key directly, without the call to
    # _compared that _Record's methods make
    def __eq__(self, other: object) -> bool:
        if other.__class__ is WeylElt:
            return self.key == other.key  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.key,))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def sign(self) -> int:
        """Determinant of the element: (-1) ** length."""
        return -1 if self.length % 2 else 1

    def act(self, weight: Sequence[int]) -> Weight:
        """w(lambda), by the simple reflections of the word, rightmost first."""
        lam = list(weight)
        columns = self.columns
        for j in reversed(self.word):
            t = lam[j - 1]
            for i, a in columns[j - 1]:
                lam[i] -= t * a
        return tuple(lam)

    def __repr__(self) -> str:
        return f"WeylElt({list(self.word)})"


def _word(datum: RootDatum, key: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically first reduced word of the element w with key
    w(rho): its smallest left descent j, the first negative coordinate of the
    key, then the word of s_j w. These are the reflections the walk of
    w(rho) into the dominant chamber takes (rootdata._walk_to_dominant).

    >>> from weylkit.rootdata import build_root_datum
    >>> _word(build_root_datum("A2"), (-1, -1))  # w0 = s_1 s_2 s_1
    (1, 2, 1)
    """
    word: list[int] = []
    _walk_to_dominant(list(key), datum._simple_columns, datum.num_positive_roots, word)
    return tuple(word)


@lru_cache(maxsize=None)
def _longest(datum: RootDatum) -> WeylElt:
    """The longest element w0, from its key -rho alone, enumerating nothing."""
    key = tuple(-c for c in datum.weyl_vector)
    return WeylElt(key, _word(datum, key), datum._simple_columns)


def _order(datum: RootDatum) -> int:
    """|W| = prod over k of (k + 1) ** (n_k - n_{k+1}), where n_k is the
    number of positive roots of height k (Kostant 1959; Humphreys,
    Reflection Groups and Coxeter Groups, 3.20); it holds for reducible data.

    >>> from weylkit.rootdata import build_root_datum
    >>> _order(build_root_datum("D4"))
    192
    """
    n = Counter(root.height for root in datum.positive_roots)
    return prod((k + 1) ** (n[k] - n[k + 1]) for k in n)


class WeylGroup:
    """The full Weyl group of a root datum, enumerated by length and indexed
    by key. A group of more than ELEMENT_CAP elements raises
    SafetyBoundExceeded before any element is built."""

    def __init__(self, datum: RootDatum):
        if (order := _order(datum)) > ELEMENT_CAP:
            raise SafetyBoundExceeded(f"Weyl group has {order} elements, more than {ELEMENT_CAP}")
        self.datum = datum
        rho = datum.weyl_vector
        keys: list[Weight] = []
        level = {rho}
        while level:
            keys += sorted(level)
            # left multiplication by s_j adds one to the length exactly
            # when the j-th coordinate of the key x is positive
            level = {datum.reflect_simple(j, x) for x in level for j, c in enumerate(x, 1) if c > 0}
        columns = datum._simple_columns
        self.elements: tuple[WeylElt, ...] = tuple(
            WeylElt(key, _word(datum, key), columns) for key in keys
        )
        self.by_key = {w.key: w for w in self.elements}
        self.identity = self.elements[0]
        self.longest = self.by_key[tuple(-c for c in rho)]
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
        """w * s_j as a group element, by its key w(s_j(rho))."""
        return self.multiply(w, self.simple(j))

    def multiply(self, a: WeylElt, b: WeylElt) -> WeylElt:
        return self.by_key[a.act(b.key)]

    def inverse(self, w: WeylElt) -> WeylElt:
        v = self.datum.weyl_vector
        for j in w.word:
            v = self.datum.reflect_simple(j, v)
        return self.by_key[v]

    def all_reduced_words(self, w: WeylElt) -> tuple[tuple[int, ...], ...]:
        """Every reduced word of w, sorted, via the left weak order.

        A reduced word starts with j exactly when j is a left descent of w
        (the j-th coordinate of w(rho) is negative), and its rest is then a
        reduced word of s_j w; recursing over all such j in increasing order
        is exhaustive and lists the words sorted. The first is w.word.
        """
        memo = self._words_memo
        cached = memo.get(w.key)
        if cached is not None:
            return cached
        if w.length == 0:
            result: tuple[tuple[int, ...], ...] = ((),)
        else:
            result = tuple(
                (j,) + rest
                for j, c in enumerate(w.key, 1)
                if c < 0
                for rest in self.all_reduced_words(
                    self.by_key[self.datum.reflect_simple(j, w.key)]
                )
            )
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
