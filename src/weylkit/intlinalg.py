"""Exact linear algebra over the integers.

Everything here works on plain lists/tuples of Python ints (arbitrary
precision), never floats. Sizes are desk scale (dimensions in the low
hundreds), so the simple classical algorithms are the right tool.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SNF(NamedTuple):
    """U @ M @ V == D with U, V unimodular and D diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    U_inv: IntMatrix
    D: IntMatrix
    V: IntMatrix


def smith_normal_form(mat: Sequence[Sequence[int]]) -> SNF:
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m)
    Ui = identity_matrix(m)
    V = identity_matrix(n)

    def row_swap(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in Ui:
            r[i], r[j] = r[j], r[i]

    def row_add(i: int, j: int, c: int) -> None:
        # row_i += c * row_j; inverse bookkeeping: col_j of U^-1 -= c * col_i
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Ui:
            r[j] -= c * r[i]

    def row_neg(i: int) -> None:
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in Ui:
            r[i] = -r[i]

    def col_swap(i: int, j: int) -> None:
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def col_add(i: int, j: int, c: int) -> None:
        # col_i += c * col_j
        for row in A:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    for t in range(min(m, n)):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(A[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != t:
                row_swap(t, pivot[0])
            if pivot[1] != t:
                col_swap(t, pivot[1])
            # Euclidean sweeps until row t and column t are clear beyond (t, t)
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        dirty = True
            if dirty:
                continue
            # divisibility condition: d_t must divide the rest of the block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if t < m and t < n and A[t][t] < 0:
            row_neg(t)
    return SNF(U, Ui, A, V)


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
