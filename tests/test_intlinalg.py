"""Exact integer linear algebra."""

import random

import pytest

from weylkit.intlinalg import (
    determinant,
    identity_matrix,
    integer_kernel,
    integer_solve,
    lattices_equal,
    mat_mul,
    mat_vec,
    smith_normal_form,
    snf_rank,
)


def random_matrix(rng, m, n, span=6):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]


def test_determinant_known_values():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, -1], [-1, 2]]) == 3
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant(identity_matrix(5)) == 1


def test_determinant_multiplicative():
    rng = random.Random("det")
    for _ in range(10):
        a = random_matrix(rng, 3, 3)
        b = random_matrix(rng, 3, 3)
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 2), (2, 4), (4, 4)])
def test_smith_normal_form_invariants(shape):
    rng = random.Random(f"snf:{shape}")
    m, n = shape
    for _ in range(15):
        mat = random_matrix(rng, m, n)
        U, U_inv, D, V = smith_normal_form(mat)
        assert mat_mul(U, U_inv) == identity_matrix(m)
        assert abs(determinant(U)) == 1
        assert abs(determinant(V)) == 1
        assert mat_mul(mat_mul(U, mat), V) == D
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        if m == n:
            det = determinant(mat)
            prod = 1
            for d in diag:
                prod *= d
            assert abs(det) == prod
            if det:
                assert snf_rank(D) == n


def test_integer_solve():
    assert integer_solve([[2, 0], [0, 3]], [2, 3]) == [1, 1]
    assert integer_solve([[2, 0], [0, 3]], [1, 0]) is None
    assert integer_solve([[1, 2], [2, 4]], [1, 3]) is None  # inconsistent
    rng = random.Random("solve")
    for _ in range(15):
        mat = random_matrix(rng, 3, 4)
        x = [rng.randint(-5, 5) for _ in range(4)]
        rhs = mat_vec(mat, x)
        got = integer_solve(mat, rhs)
        assert got is not None
        assert mat_vec(mat, got) == rhs


def test_integer_kernel():
    gens = integer_kernel([[1, 2]])
    assert lattices_equal(gens, [[2, -1]])
    for g in gens:
        assert mat_vec([[1, 2]], g) == [0]
    assert integer_kernel(identity_matrix(3)) == []
    rng = random.Random("kernel")
    for _ in range(10):
        mat = random_matrix(rng, 2, 4)
        for g in integer_kernel(mat):
            assert mat_vec(mat, g) == [0] * 2


def test_lattices_equal():
    assert lattices_equal([[1, 0], [0, 1]], [[1, 1], [0, 1]])
    assert not lattices_equal([[2, 0], [0, 1]], [[1, 0], [0, 2]])
    assert not lattices_equal([[2, 0], [0, 2]], [[2, 2], [2, -2]])
    assert lattices_equal([], [])
    assert not lattices_equal([[1]], [])
