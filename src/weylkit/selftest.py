"""Seeded property suites runnable per group, packaged for the CLI.

Each suite draws from its own RNG seeded by (seed, group, suite), so reports
are byte-identical across runs with the same seed while timings (which are
not deterministic) go to the diagnostic stream. Every suite runs on every
group, the Steinberg-coordinate checks included.
"""

from __future__ import annotations

import random
import sys
from time import perf_counter
from typing import Callable, TextIO

from .charring import CharElt, monomial, weyl_act_simple
from .demazure import alternating_quotient, delta, delta_prime, partial, partial_prime, top
from .errors import NotDivisible, WeylkitError
from .hecke import OpExpr, in_augmentation_ideal, is_ideal_invariant, is_weyl_invariant, to_basis
from .repring import (
    decompose_into_irreducibles,
    decompose_over_invariants,
    induce,
    irreducible_character,
    orbit_sum,
    reconstruct_over_invariants,
    restrict,
    steinberg_basis,
    weyl_dimension,
)
from .covers import build_cover, decompose_cover, pullback, reconstruct_cover
from .parsing import parse_char_expression
from .rootdata import RootDatum, build_root_datum
from .weyl import weyl_group

__all__ = ["run_selftest", "random_char_elt"]


def _check(condition: bool, what: str) -> None:
    # an explicit raise, unlike assert, still runs under python -O
    if not condition:
        raise AssertionError(what)


def random_char_elt(
    rng: random.Random, rank: int, nterms: int = 4, span: int = 3
) -> CharElt:
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(nterms):
        key = tuple(rng.randint(-span, span) for _ in range(rank))
        coeff = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        terms[key] = terms.get(key, 0) + coeff
    return CharElt(terms)


def _suite_root_data(datum: RootDatum, rng: random.Random) -> int:
    checks = 0
    _check(datum.two_rho_check(), "2 rho == sum of positive roots")
    checks += 1
    for j in range(1, datum.rank + 1):
        coords = datum.simple_root(j).root_coords
        _check(coords == tuple(int(i == j - 1) for i in range(datum.rank)), "simple root j has root coordinates e_j")
        checks += 1
    for _ in range(20):
        lam = tuple(rng.randint(-5, 5) for _ in range(datum.rank))
        for root in datum.positive_roots:
            image = datum.reflect(root, lam)
            _check(datum.reflect(root, image) == lam, "s_a(s_a(lambda)) == lambda")
            _check(datum.pairing(image, root) == -datum.pairing(lam, root), "<s_a(lambda), a-check> == -<lambda, a-check>")
        rep = datum.dominant_representative(lam)
        _check(datum.is_dominant(rep), "dominant_representative is dominant")
        _check(datum.dominant_representative(rep) == rep, "dominant_representative fixes dominant weights")
        checks += 1
    return checks


def _suite_weyl_group(datum: RootDatum, rng: random.Random) -> int:
    group = weyl_group(datum)
    checks = 0
    _check(group.longest.length == len(datum.positive_roots), "length of w0 == number of positive roots")
    _check(group.longest.sign == (-1) ** len(datum.positive_roots), "sign of w0 == (-1)^(number of positive roots)")
    checks += 2
    elements = list(group.elements)
    for _ in range(20):
        a, b = rng.choice(elements), rng.choice(elements)
        ab = group.multiply(a, b)
        lam = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
        _check(ab.act(lam) == a.act(b.act(lam)), "(ab)(lambda) == a(b(lambda))")
        _check(group.multiply(a, group.inverse(a)) == group.identity, "a * a^-1 == identity")
        checks += 1
    for w in rng.sample(elements, min(4, len(elements))):
        for word in group.all_reduced_words(w):
            _check(len(word) == w.length, "reduced word length == length")
            v = group.identity
            for j in word:
                v = group.right_descend(v, j)
            _check(v == w, "reduced word multiplies to its element")
            checks += 1
    return checks


def _suite_char_ring(datum: RootDatum, rng: random.Random) -> int:
    rank = datum.rank
    checks = 0
    for _ in range(15):
        u = random_char_elt(rng, rank)
        v = random_char_elt(rng, rank)
        w = random_char_elt(rng, rank, nterms=2)
        _check(u + v == v + u, "u + v == v + u")
        _check((u + v) * w == u * w + v * w, "(u + v) w == u w + v w")
        _check((u * v) * w == u * (v * w), "(u v) w == u (v w)")
        _check(u - u == CharElt.zero(), "u - u == 0")
        _check(parse_char_expression(str(u), rank) == u, "parse(str(u)) == u")
        checks += 1
    j = rng.randint(1, rank)
    factor = CharElt.one(rank) - monomial(tuple(-c for c in datum.simple_root(j).weight_coords))
    for _ in range(10):
        u = random_char_elt(rng, rank)
        _check(delta_prime(datum, j, u) * factor == u - weyl_act_simple(datum, j, u), "delta'_j(u) (1 - e^-a_j) == u - s_j(u)")
        checks += 1
    try:
        (2 * CharElt.one(rank)) ** -1
        raise AssertionError("expected NotDivisible")
    except NotDivisible:
        checks += 1
    _check(alternating_quotient(datum, CharElt.one(rank)) == CharElt.one(rank), "A(1)/d == 1")
    checks += 1
    return checks


def _suite_demazure(datum: RootDatum, rng: random.Random) -> int:
    rank = datum.rank
    group = weyl_group(datum)
    one = CharElt.one(rank)
    checks = 0
    for j in range(1, rank + 1):
        _check(delta(datum, j, one) == one, "delta_j(1) == 1")
        _check(delta_prime(datum, j, one) == CharElt.zero(), "delta'_j(1) == 0")
        checks += 2
    for _ in range(10):
        u = random_char_elt(rng, rank)
        for j in range(1, rank + 1):
            dj = delta(datum, j, u)
            _check(delta(datum, j, dj) == dj, "delta_j idempotent")
            pj = delta_prime(datum, j, u)
            _check(delta_prime(datum, j, pj) == pj, "delta'_j idempotent")
            _check(dj == pj + weyl_act_simple(datum, j, u), "delta_j == delta'_j + s_j")
            checks += 3
    for _ in range(5):
        u = random_char_elt(rng, rank, nterms=3, span=2)
        w = rng.choice(list(group.elements))
        partial(datum, w, u, strict=True)  # raises WordMismatch on any word disagreement
        checks += 1
        t = top(datum, u, strict=False, method="both")
        _check(top(datum, t, strict=False) == t, "top(top(u)) == top(u)")
        checks += 1
        rho = datum.weyl_vector
        erho = monomial(rho)
        erho_inv = monomial(tuple(-c for c in rho))
        _check(partial_prime(datum, w, u) == erho * partial(datum, w, erho_inv * u), "partial'_w(u) == e^rho partial_w(e^-rho u)")
        checks += 1
    return checks


def _suite_hecke(datum: RootDatum, rng: random.Random) -> int:
    rank = datum.rank
    checks = 0
    for _ in range(10):
        u = random_char_elt(rng, rank)
        ideal_ok, _ = is_ideal_invariant(datum, u)
        weyl_ok, _ = is_weyl_invariant(datum, u)
        _check(ideal_ok == weyl_ok, "ideal invariance == Weyl invariance")
        checks += 1
    inv = orbit_sum(datum, tuple(rng.randint(0, 2) for _ in range(rank)))
    ok, witness = is_ideal_invariant(datum, inv)
    _check(ok and witness is None, "orbit sum is ideal invariant")
    checks += 1
    _check(in_augmentation_ideal(datum, OpExpr.dp(1)), "dp[1] in augmentation ideal")
    _check(not in_augmentation_ideal(datum, OpExpr.d(1)), "d[1] not in augmentation ideal")
    checks += 2
    for _ in range(3):
        kinds = [rng.choice(["d", "dp", "w", "m"]) for _ in range(rng.randint(1, 3))]
        expr = None
        for kind in kinds:
            atom = (
                OpExpr.m(random_char_elt(rng, rank, nterms=2, span=1))
                if kind == "m"
                else getattr(OpExpr, kind)(rng.randint(1, rank))
            )
            expr = atom if expr is None else expr * atom
        op = to_basis(datum, expr, strict=False)
        for _ in range(2):
            u = random_char_elt(rng, rank, nterms=3, span=2)
            _check(op.apply(datum, u, strict=False) == expr.apply(datum, u, strict=False), "to_basis(expr) acts as expr")
            checks += 1
    return checks


def _suite_rep_ring(datum: RootDatum, rng: random.Random) -> int:
    rank = datum.rank
    checks = 0
    from itertools import product as iproduct

    for lam in iproduct(range(2), repeat=rank):
        ch = irreducible_character(datum, lam, strict=False, method="both")
        _check(sum(c for _, c in ch.items()) == weyl_dimension(datum, lam), "coefficient sum == weyl_dimension")
        checks += 1
    a = irreducible_character(datum, tuple(rng.randint(0, 1) for _ in range(rank)), strict=False)
    b = irreducible_character(datum, tuple(rng.randint(0, 1) for _ in range(rank)), strict=False)
    dec = decompose_into_irreducibles(datum, a * b, strict=False)
    _check(restrict(datum, dec, strict=False) == a * b, "restrict(decompose(a b)) == a b")
    u = random_char_elt(rng, rank, nterms=3, span=2)  # not invariant: Bott's identity vs Demazure
    _check(induce(datum, u) == decompose_into_irreducibles(datum, top(datum, u, strict=False)), "induce(u) == decompose(top(u))")
    checks += 2
    basis = steinberg_basis(datum)
    for _ in range(3):
        u = random_char_elt(rng, rank, nterms=2, span=1)
        coords = decompose_over_invariants(datum, u, basis)
        _check(reconstruct_over_invariants(datum, coords, basis) == u, "reconstruct(decompose_over_invariants(u)) == u")
        checks += 1
    return checks


def _suite_covers(datum: RootDatum, rng: random.Random) -> int:
    rank = datum.rank
    checks = 0
    matrices: list[list[list[int]]] = []
    if rank == 1:
        matrices = [[[2]], [[3]]]
    else:
        diag = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        upper = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        upper[0][rank - 1] = 2
        upper[0][0] = 3
        matrices = [diag, upper]
    for mat in matrices:
        cover = build_cover(mat)
        _check(len(cover.coset_reps) == cover.index, "number of coset reps == index")
        _check(cover.coset_reps[0] == (0,) * rank, "first coset rep == 0")
        checks += 1
        for _ in range(10):
            u = random_char_elt(rng, rank, nterms=4, span=4)
            parts = decompose_cover(cover, u)
            _check(reconstruct_cover(cover, parts) == u, "reconstruct_cover(decompose_cover(u)) == u")
            lifted = decompose_cover(cover, pullback(cover, u))
            _check(lifted[(0,) * rank] == u, "pullback lands in the trivial coset part")
            _check(all(not lifted[rep] for rep in cover.coset_reps[1:]), "pullback has no other coset parts")
            checks += 1
    return checks


_SUITES: tuple[tuple[str, Callable[[RootDatum, random.Random], int]], ...] = (
    ("root_data", _suite_root_data),
    ("weyl_group", _suite_weyl_group),
    ("char_ring", _suite_char_ring),
    ("demazure_ops", _suite_demazure),
    ("hecke_ops", _suite_hecke),
    ("rep_ring", _suite_rep_ring),
    ("covers", _suite_covers),
)


def run_selftest(
    names: list[str],
    seed: int = 0,
    out: TextIO = sys.stdout,
    err: TextIO = sys.stderr,
) -> int:
    failures = 0
    total = 0
    for name in names:
        datum = build_root_datum(name)
        for suite_name, fn in _SUITES:
            rng = random.Random(f"{seed}:{name}:{suite_name}")
            started = perf_counter()
            try:
                checks = fn(datum, rng)
            except (AssertionError, WeylkitError) as exc:
                failures += 1
                out.write(f"{name} {suite_name}: FAIL ({type(exc).__name__}: {exc})\n")
            else:
                total += checks
                out.write(f"{name} {suite_name}: ok ({checks} checks)\n")
            err.write(f"# {name} {suite_name}: {(perf_counter() - started) * 1000:.1f} ms\n")
    if failures:
        out.write(f"{failures} suite(s) FAILED\n")
        return 1
    out.write(f"all suites passed ({total} checks)\n")
    return 0
