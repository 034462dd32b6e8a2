"""Integer linear algebra that only the tests use, on top of weylkit.intlinalg:
matrix products, integer solutions and kernels, and lattice equality."""

from __future__ import annotations

from typing import Sequence

from weylkit.intlinalg import IntMatrix, mat_vec, smith_normal_form


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    n, k = len(a), len(b)
    cols = len(b[0]) if k else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(cols):
                    oi[j] += c * bt[j]
    return out


def snf_rank(D: Sequence[Sequence[int]]) -> int:
    return sum(1 for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


def integer_solve(mat: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int] | None:
    """One integer solution of mat @ x == rhs, or None if there is none."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    U, _, D, V = smith_normal_form(mat)
    y = mat_vec(U, list(rhs))
    r = snf_rank(D)
    z = [0] * n
    for i in range(m):
        if i < r:
            d = D[i][i]
            if y[i] % d:
                return None
            z[i] = y[i] // d
        elif y[i]:
            return None
    return mat_vec(V, z)


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer kernel lattice, one generator per list entry."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    _, _, D, V = smith_normal_form(mat)
    r = snf_rank(D)
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def lattices_equal(gens_a: Sequence[Sequence[int]], gens_b: Sequence[Sequence[int]]) -> bool:
    """Do two generator lists span the same sublattice of Z^n?"""
    if len(gens_a) != len(gens_b):
        return False
    if not gens_a:
        return True

    def contains(gens: Sequence[Sequence[int]], vecs: Sequence[Sequence[int]]) -> bool:
        cols = [list(g) for g in gens]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
        return all(integer_solve(mat, list(v)) is not None for v in vecs)

    return contains(gens_a, gens_b) and contains(gens_b, gens_a)
