"""Finite covers of tori presented as finite-index weight-lattice extensions.

An integer matrix M with nonzero determinant embeds a character lattice into
Z^rank as the column span. Pulling back along the covering reindexes
characters through M; the quotient lattice is finite of order |det M|, and
choosing one representative per coset splits the big ring into |det M| shifted
copies of the small one:

    v = sum over cosets of e^rep * pullback(u_rep),   u_rep unique.

Representatives come from the Smith normal form U*M*V = D: a point v lies in
the coset of U^{-1}*((U*v) mod D), where mod acts componentwise through the
positive diagonal of D. Any fixed section would do; this one is deterministic
and sends 0 to 0.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Mapping, Sequence

from .charring import CharElt, _add_scaled
from .errors import SingularMatrix
from .intlinalg import determinant, mat_vec, smith_normal_form
from .rootdata import Weight, _Record

__all__ = ["CoverDatum", "build_cover", "pullback", "decompose_cover", "reconstruct_cover"]


class CoverDatum(_Record):
    """A cover matrix M with det M and its Smith normal form U*M*V = D
    (module docstring): u, u_inv and v are U, U^{-1} and V, diag the
    diagonal of D. Equality and hash read every field."""

    _FIELDS = ("rank", "matrix", "det", "u", "u_inv", "diag", "v")

    def __init__(
        self,
        rank: int,
        matrix: tuple[tuple[int, ...], ...],
        det: int,
        u: tuple[tuple[int, ...], ...],
        u_inv: tuple[tuple[int, ...], ...],
        diag: tuple[int, ...],
        v: tuple[tuple[int, ...], ...],
    ):
        self._set(rank=rank, matrix=matrix, det=det, u=u, u_inv=u_inv, diag=diag, v=v)

    @property
    def index(self) -> int:
        return abs(self.det)

    @cached_property
    def coset_reps(self) -> tuple[Weight, ...]:
        """One representative per coset, U^{-1} y for y in the box of D,
        built on first use: there are |det M| of them."""
        return tuple(
            tuple(mat_vec(self.u_inv, list(y))) for y in product(*[range(d) for d in self.diag])
        )

    def reduce(self, point: Sequence[int]) -> tuple[Weight, Weight]:
        """Split a lattice point as rep + M*k; returns (rep, k)."""
        y = mat_vec(self.u, list(point))
        y_mod = [a % d for a, d in zip(y, self.diag)]
        rep = tuple(mat_vec(self.u_inv, y_mod))
        k = tuple(mat_vec(self.v, [(a - b) // d for a, b, d in zip(y, y_mod, self.diag)]))
        return rep, k


def build_cover(matrix: Sequence[Sequence[int]]) -> CoverDatum:
    rank = len(matrix)
    rows = [list(map(int, row)) for row in matrix]
    if any(len(row) != rank for row in rows):
        raise SingularMatrix("cover matrix must be square")
    det = determinant(rows)
    if det == 0:
        raise SingularMatrix("cover matrix must have nonzero determinant")
    U, U_inv, D, V = smith_normal_form(rows)
    return CoverDatum(
        rank=rank,
        matrix=tuple(tuple(row) for row in rows),
        det=det,
        u=tuple(tuple(row) for row in U),
        u_inv=tuple(tuple(row) for row in U_inv),
        diag=tuple(D[i][i] for i in range(rank)),
        v=tuple(tuple(row) for row in V),
    )


def pullback(cover: CoverDatum, u: CharElt) -> CharElt:
    """Reindex e^lam to e^{M lam}; an injective ring homomorphism."""
    return CharElt._raw(
        {tuple(mat_vec(cover.matrix, list(lam))): c for lam, c in u.items()}
    )


def decompose_cover(cover: CoverDatum, v: CharElt) -> dict[Weight, CharElt]:
    """Split v over the cosets; every representative appears, zeros included."""
    parts: dict[Weight, dict[Weight, int]] = {rep: {} for rep in cover.coset_reps}
    for lam, c in v.items():
        rep, k = cover.reduce(lam)
        parts[rep][k] = c
    return {rep: CharElt._raw(terms) for rep, terms in parts.items()}


def reconstruct_cover(cover: CoverDatum, parts: Mapping[Weight, CharElt]) -> CharElt:
    """Inverse of decompose_cover: sum of e^rep * pullback(part)."""
    out: dict[Weight, int] = {}
    for rep, part in parts.items():
        _add_scaled(out, (CharElt._raw({rep: 1}) * pullback(cover, part))._terms.items())
    return CharElt._raw(out)
