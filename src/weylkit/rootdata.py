"""Root data for compact connected Lie groups, in fundamental-weight coordinates.

Conventions, fixed once for the whole package:

* A weight is a tuple of ints: the coefficients of the fundamental weights,
  so the j-th coordinate of lambda is the pairing <lambda, alpha_j-check>.
* The Cartan matrix follows A[i][j] = <alpha_j, alpha_i-check>: column j is
  the simple root alpha_j written in fundamental-weight coordinates.
* A simple reflection therefore acts by s_j(lambda)_i = lambda_i - lambda_j * A[i][j].

Positive roots are generated by reflection closure from the simple roots and
each carries its coroot as an integer linear functional, so pairings against
arbitrary (also non-simple) coroots stay exact integer arithmetic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .errors import InternalInvariantError, NotFiniteType
from .intlinalg import determinant

Weight = tuple[int, ...]

__all__ = [
    "Weight",
    "Root",
    "RootDatum",
    "build_root_datum",
    "NAMED_TYPES",
]


class _Record:
    """Base of the package's small immutable records, a plain class where a
    frozen dataclass would do: importing dataclasses loads inspect and ast,
    which cost a fresh CLI process more than most commands compute.

    A subclass's __init__ stores its fields with _set, and _FIELDS names them
    in that order, for the repr and for _compared. A record equals a record
    of its own class with the same _compared() tuple, and hashes as that
    tuple. Assigning or deleting an attribute raises AttributeError
    afterwards; functools.cached_property still works, as it writes the
    instance dict directly.
    """

    _FIELDS: tuple[str, ...] = ()

    def _set(self, **fields: object) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _compared(self) -> tuple:
        """The fields that equality and hash read: all of _FIELDS, unless a
        subclass reads fewer."""
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"


class Root(_Record):
    """A root, kept in both coordinate systems plus its coroot functional.

    root_coords: coefficients over the simple roots.
    weight_coords: the same root in fundamental-weight coordinates.
    coroot: integer functional f with f . mu == <mu, alpha-check>.
    """

    _FIELDS = ("root_coords", "weight_coords", "coroot")

    def __init__(self, root_coords: Weight, weight_coords: Weight, coroot: Weight):
        self._set(root_coords=root_coords, weight_coords=weight_coords, coroot=coroot)

    @property
    def height(self) -> int:
        return sum(self.root_coords)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.root_coords) and any(self.root_coords)

    def negated(self) -> "Root":
        return Root(
            tuple(-c for c in self.root_coords),
            tuple(-c for c in self.weight_coords),
            tuple(-c for c in self.coroot),
        )


def _validate_cartan(cartan: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(cartan)
    rows = []
    for row in cartan:
        if len(row) != n:
            raise NotFiniteType("Cartan matrix must be square")
        rows.append(tuple(int(c) for c in row))
    for i in range(n):
        if rows[i][i] != 2:
            raise NotFiniteType(f"diagonal entry A[{i+1}][{i+1}] = {rows[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise NotFiniteType(f"off-diagonal entry A[{i+1}][{j+1}] must be <= 0")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise NotFiniteType(f"zero pattern not symmetric at ({i+1},{j+1})")
            # finite type allows 0..3; this also keeps the minors below small
            if rows[i][j] * rows[j][i] > 3:
                raise NotFiniteType(f"A[{i+1}][{j+1}] * A[{j+1}][{i+1}] exceeds 3")
    for k in range(1, n + 1):
        minor = determinant([r[:k] for r in rows[:k]])
        if minor <= 0:
            raise NotFiniteType(f"leading principal minor of order {k} is {minor} <= 0")
    return tuple(rows)


class RootDatum(_Record):
    """Validated finite-type root datum; immutable and hashable. Equality
    and hash read the rank and the Cartan matrix only."""

    _FIELDS = ("rank", "cartan", "positive_roots", "weyl_vector", "label")

    def __init__(
        self,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Root, ...],
        weyl_vector: Weight,
        label: str | None = None,
    ):
        self._set(
            rank=rank,
            cartan=cartan,
            positive_roots=positive_roots,
            weyl_vector=weyl_vector,
            label=label,
        )

    def _compared(self) -> tuple:
        return (self.rank, self.cartan)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    def simple_root(self, j: int) -> Root:
        """The j-th simple root, j in 1..rank."""
        self._check_index(j)
        return self.positive_roots[j - 1]

    def _check_index(self, j: int) -> None:
        if not 1 <= j <= self.rank:
            raise IndexError(f"simple root index {j} out of range 1..{self.rank}")

    def _checked_weight(self, weight: Sequence[int]) -> Weight:
        """The weight as a tuple; ValueError unless its length is the rank."""
        lam = tuple(weight)
        if len(lam) != self.rank:
            raise ValueError(f"weight {lam} has length {len(lam)}, but the rank is {self.rank}")
        return lam

    def reflect_simple(self, j: int, weight: Sequence[int]) -> Weight:
        """s_j(lambda), by s_j(lambda)_i = lambda_i - lambda_j * A[i][j]."""
        self._check_index(j)
        lj = weight[j - 1]
        if lj == 0:
            return tuple(weight)
        return tuple([w - lj * row[j - 1] for w, row in zip(weight, self.cartan)])

    def pairing(self, weight: Sequence[int], root: Root) -> int:
        """<lambda, alpha-check> for any root alpha of this datum."""
        return sum(f * w for f, w in zip(root.coroot, weight))

    def reflect(self, root: Root, weight: Sequence[int]) -> Weight:
        """s_alpha(lambda) = lambda - <lambda, alpha-check> alpha, any root alpha."""
        k = self.pairing(weight, root)
        if k == 0:
            return tuple(weight)
        return tuple(w - k * a for w, a in zip(weight, root.weight_coords))

    def is_dominant(self, weight: Sequence[int]) -> bool:
        return all(c >= 0 for c in weight)

    def dominant_representative(self, weight: Sequence[int]) -> Weight:
        """The unique dominant weight in the Weyl orbit of the input."""
        return self.reflect_to_dominant(weight)[0]

    def reflect_to_dominant(self, weight: Sequence[int]) -> tuple[Weight, int]:
        """The dominant representative and the number of simple reflections
        taken; (-1)^count is the sign.

        A copy of the weight walks into the dominant chamber in place
        (_walk_to_dominant), reflecting at its first negative coordinate:

        >>> build_root_datum("A2").reflect_to_dominant((-1, 0))  # s_1, then s_2
        ((0, 1), 2)
        """
        lam = list(weight)
        count = _walk_to_dominant(lam, self._simple_columns, len(self.positive_roots))
        return tuple(lam), count

    @cached_property
    def _simple_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each simple root alpha_j, the pairs (i, a) of its nonzero
        fundamental-weight coordinates a = A[i][j], read from
        positive_roots[:rank]: s_j(lambda) changes lambda only there, by
        -lambda_j * a. Kept on the instance, as small callers fold often."""
        return tuple(
            tuple((i, a) for i, a in enumerate(root.weight_coords) if a)
            for root in self.positive_roots[: self.rank]
        )

    def two_rho_check(self) -> bool:
        """2 * rho equals the sum of all positive roots."""
        total = [0] * self.rank
        for root in self.positive_roots:
            for i, c in enumerate(root.weight_coords):
                total[i] += c
        return tuple(total) == tuple(2 * c for c in self.weyl_vector)


def _walk_to_dominant(
    lam: list[int],
    columns: Sequence[Sequence[tuple[int, int]]],
    bound: int,
    taken: list[int] | None = None,
) -> int:
    """Reflect lam into the dominant chamber in place and return the number
    of simple reflections taken; columns is RootDatum._simple_columns and
    bound its number of positive roots. Given a list taken, the index j of
    each reflection is appended to it, in order.

    Each step applies s_j at the first negative coordinate lam_j. s_j sends
    alpha_j to -alpha_j and permutes the other positive roots, so the step
    lowers by one the number of positive roots beta with <lam, beta-check> < 0,
    and the walk settles within bound steps. A walk that does not raises
    InternalInvariantError.
    """
    for count in range(bound + 1):
        for j, t in enumerate(lam):
            if t < 0:
                for i, a in columns[j]:
                    lam[i] -= t * a
                if taken is not None:
                    taken.append(j + 1)
                break
        else:
            return count
    raise InternalInvariantError(f"dominant-chamber walk did not settle within {bound} steps")


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[Root, ...]:
    """Reflection closure of the simple roots, keeping the positive ones.

    Coroot functionals propagate along with the roots: for beta = s_i(gamma),
    <mu, beta-check> = <s_i(mu), gamma-check>, i.e. f_beta = f_gamma o s_i.
    """
    n = len(cartan)
    simples = []
    for j in range(n):
        rc = tuple(1 if k == j else 0 for k in range(n))
        wc = tuple(cartan[i][j] for i in range(n))
        co = tuple(1 if k == j else 0 for k in range(n))
        simples.append(Root(rc, wc, co))

    def reflect_root(i: int, root: Root) -> Root:
        # s_i subtracts (i-th weight coordinate) * alpha_i
        k = root.weight_coords[i]
        rc = tuple(c - (k if idx == i else 0) for idx, c in enumerate(root.root_coords))
        wc = tuple(w - k * cartan[r][i] for r, w in enumerate(root.weight_coords))
        # (f o s_i)(mu) = f(mu) - mu_i * f(alpha_i)
        f_alpha_i = sum(root.coroot[r] * cartan[r][i] for r in range(n))
        co = tuple(
            f - (f_alpha_i if idx == i else 0) for idx, f in enumerate(root.coroot)
        )
        return Root(rc, wc, co)

    found: dict[Weight, Root] = {r.root_coords: r for r in simples}
    # one sweep per root height, and a last one that finds nothing new (the
    # only one at rank 0); a matrix that passed _validate_cartan always
    # settles, so running out of sweeps is a bug, not bad input
    bound = 4 * n * n + 1
    for _ in range(bound):
        new: list[Root] = []
        for root in found.values():
            for i in range(n):
                img = reflect_root(i, root)
                if img.is_positive and img.root_coords not in found:
                    new.append(img)
        if not new:
            break
        for r in new:
            found.setdefault(r.root_coords, r)
    else:
        raise InternalInvariantError(f"reflection closure exceeded {bound} sweeps")
    # simple roots first (in index order), then by height
    roots = sorted(
        found.values(), key=lambda r: (r.height, tuple(-c for c in r.root_coords))
    )
    return tuple(roots)


def _family_cartan(name: str) -> list[list[int]]:
    family, rank = name[0], int(name[1:])
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = rank - 2 if family == "D" else rank - 1
    for i in range(chain):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if family == "A":
        pass
    elif family == "B":
        # last simple root short: A[n][n-1] = <alpha_{n-1}, alpha_n-check> = -2
        a[rank - 1][rank - 2] = -2
    elif family == "C":
        # last simple root long: A[n-1][n] = <alpha_n, alpha_{n-1}-check> = -2
        a[rank - 2][rank - 1] = -2
    elif family == "D":
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    elif family == "G":
        # alpha_1 short, alpha_2 long
        a = [[2, -3], [-1, 2]]
    else:
        raise NotFiniteType(f"unknown family {family!r}")
    return a


NAMED_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2")


def build_root_datum(spec: str | Sequence[Sequence[int]]) -> RootDatum:
    """Build a root datum from a named type or an explicit Cartan matrix.

    Named types: A1 A2 A3 B2 B3 C2 C3 D4 G2. An explicit matrix must be a
    valid finite-type Cartan matrix under the column convention above;
    anything else raises NotFiniteType.
    """
    label: str | None = None
    if isinstance(spec, str):
        name = spec.strip().upper()
        if name not in NAMED_TYPES:
            raise NotFiniteType(
                f"unknown type {spec!r}; named types are {', '.join(NAMED_TYPES)}"
            )
        matrix: Sequence[Sequence[int]] = _family_cartan(name)
        label = name
    else:
        matrix = spec
    cartan = _validate_cartan(matrix)
    roots = _positive_roots(cartan)
    rho = tuple(1 for _ in cartan)
    return RootDatum(
        rank=len(cartan),
        cartan=cartan,
        positive_roots=roots,
        weyl_vector=rho,
        label=label,
    )
