"""End-to-end checks at desk scale, one summary line per criterion.

Every equality below is exact integer equality; there are no tolerances.
Run with -s to see the summary lines and the criterion-9 log output.
"""

import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product

from intlinalg_helpers import integer_kernel, lattices_equal
from weylkit.charring import CharElt, monomial, weyl_act_simple
from weylkit.covers import build_cover, decompose_cover, pullback, reconstruct_cover
from weylkit.demazure import (
    alternating_quotient,
    delta,
    delta_prime,
    partial,
    partial_prime,
    top,
)
from weylkit.hecke import HeckeOp, OpExpr, in_augmentation_ideal, to_basis
from weylkit.repring import (
    IrredDecomp,
    decompose_over_invariants,
    irreducible_character,
    reconstruct_over_invariants,
    steinberg_basis,
    weyl_dimension,
)
from weylkit.rootdata import build_root_datum
from weylkit.selftest import random_char_elt
from weylkit.weyl import orbit, weyl_group


@contextmanager
def criterion(n, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} {title}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {n:02d} {title}: PASS ({time.perf_counter() - start:.1f}s)")


def seeded_elt(rng, rank, nterms=6, span=5):
    """Random element with weights in [-span, span]^rank, coefficients in [-9, 9]."""
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(-span, span) for _ in range(rank))
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    return CharElt(terms)


def weylkit_command():
    script = shutil.which("weylkit")
    if script:
        return [script]
    return [sys.executable, "-m", "weylkit.cli"]


def test_01_idempotence_and_unit_values():
    start = time.perf_counter()
    with criterion(1, "idempotence and unit values"):
        for name in ("A1", "A2", "B2", "G2"):
            datum = build_root_datum(name)
            rng = random.Random(f"acceptance-1:{name}")
            one = CharElt.one(datum.rank)
            zero = CharElt.zero()
            for j in range(1, datum.rank + 1):
                assert delta(datum, j, one) == one
                assert delta_prime(datum, j, one) == zero
            for _ in range(200):
                u = seeded_elt(rng, datum.rank)
                for j in range(1, datum.rank + 1):
                    v = delta(datum, j, u)
                    assert delta(datum, j, v) == v
                    vp = delta_prime(datum, j, u)
                    assert delta_prime(datum, j, vp) == vp
        assert time.perf_counter() - start < 10.0


def test_02_reduced_word_independence():
    start = time.perf_counter()
    with criterion(2, "reduced-word independence"):
        for name, order in (("A2", 6), ("B2", 8), ("G2", 12)):
            datum = build_root_datum(name)
            group = weyl_group(datum)
            assert len(group) == order
            rng = random.Random(f"acceptance-2:{name}")
            for w in group:
                words = group.all_reduced_words(w)
                for _ in range(20):
                    u = seeded_elt(rng, datum.rank, nterms=4, span=3)
                    first = None
                    for word in words:
                        v = u
                        for j in reversed(word):
                            v = delta(datum, j, v)
                        if first is None:
                            first = v
                        else:
                            assert v == first
                    assert partial(datum, w, u, strict=True) == first
        assert time.perf_counter() - start < 30.0


def test_03_longest_operator_matches_character_formula():
    with criterion(3, "character formula agreement"):
        for name in ("A1", "A2", "B2", "G2"):
            datum = build_root_datum(name)
            group = weyl_group(datum)
            for lam in product(range(4), repeat=datum.rank):
                chi = partial(datum, group.longest, monomial(lam))
                assert chi == alternating_quotient(datum, monomial(lam))
                assert chi.coefficient(lam) == 1
                assert sum(c for _, c in chi.items()) == weyl_dimension(datum, lam)
        assert weyl_dimension(build_root_datum("A2"), (1, 1)) == 8


def test_04_projector_laws():
    with criterion(4, "invariants projector"):
        for name in ("A1", "A2", "B2", "G2"):
            datum = build_root_datum(name)
            rng = random.Random(f"acceptance-4:{name}")
            for lam in product(range(4), repeat=datum.rank):
                chi = irreducible_character(datum, lam)
                assert top(datum, chi) == chi
            for _ in range(5):
                u = seeded_elt(rng, datum.rank, nterms=4, span=3)
                t = top(datum, u)
                assert top(datum, t) == t
                lam = tuple(rng.randint(0, 2) for _ in range(datum.rank))
                chi = irreducible_character(datum, lam)
                assert top(datum, chi * u) == chi * top(datum, u)


def test_05_invariance_characterizations_cut_out_one_lattice():
    start = time.perf_counter()
    with criterion(5, "invariance systems agree"):
        frozen = {"A1": 4, "A2": 10}
        for name in ("A1", "A2", "B2"):
            datum = build_root_datum(name)
            rank = datum.rank
            box = sorted(product(range(-3, 4), repeat=rank))
            col = {mu: i for i, mu in enumerate(box)}

            def system(image_of):
                rows = {}
                for mu in box:
                    for nu, c in image_of(monomial(mu)).items():
                        row = rows.setdefault(nu, [0] * len(box))
                        row[col[mu]] += c
                return rows

            ideal_rows = []
            weyl_rows = []
            for j in range(1, rank + 1):
                ideal_rows.extend(
                    row
                    for _, row in sorted(
                        system(lambda u, j=j: delta_prime(datum, j, u)).items()
                    )
                )
                weyl_rows.extend(
                    row
                    for _, row in sorted(
                        system(lambda u, j=j: weyl_act_simple(datum, j, u) - u).items()
                    )
                )
            k_ideal = integer_kernel(ideal_rows)
            k_weyl = integer_kernel(weyl_rows)
            assert len(k_ideal) == len(k_weyl)
            assert lattices_equal(k_ideal, k_weyl)
            # independent count: orbit sums whose whole orbit stays in the box
            expected = sum(
                1
                for lam in product(range(4), repeat=rank)
                if all(max(abs(c) for c in p) <= 3 for p in orbit(datum, lam))
            )
            assert len(k_ideal) == expected
            if name in frozen:
                assert expected == frozen[name]
        assert time.perf_counter() - start < 60.0


def random_op_expr(rng, rank, max_len=3):
    expr = None
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(("d", "dp", "w", "m"))
        if kind == "m":
            atom = OpExpr.m(random_char_elt(rng, rank, nterms=2, span=1))
        else:
            atom = getattr(OpExpr, kind)(rng.randint(1, rank))
        expr = atom if expr is None else expr * atom
    return expr


def test_06_operator_basis():
    with criterion(6, "operator basis"):
        for name in ("A1", "A2"):
            datum = build_root_datum(name)
            group = weyl_group(datum)
            rng = random.Random(f"acceptance-6:{name}")
            one = CharElt.one(datum.rank)
            for w in group:
                word_expr = OpExpr(())
                for j in w.word:
                    word_expr = word_expr * OpExpr.d(j)
                assert to_basis(datum, word_expr) == HeckeOp({w: one})
            for j in range(1, datum.rank + 1):
                assert in_augmentation_ideal(datum, OpExpr.dp(j))
            for _ in range(30):
                expr = random_op_expr(rng, datum.rank)
                basis_form = to_basis(datum, expr)
                for _ in range(3):
                    u = seeded_elt(rng, datum.rank, nterms=3, span=2)
                    assert basis_form.apply(datum, u) == expr.apply(datum, u)
        # rank-one closed forms, alpha = 2 * fundamental weight
        datum = build_root_datum("A1")
        group = weyl_group(datum)
        s = group.simple(1)
        alpha = monomial((2,))
        one = CharElt.one(1)
        assert to_basis(datum, OpExpr.w(1)) == HeckeOp(
            {group.identity: alpha, s: one - alpha}
        )
        assert to_basis(datum, OpExpr.dp(1)) == HeckeOp(
            {group.identity: -alpha, s: alpha}
        )


def test_07_free_module_coordinates():
    with criterion(7, "monomial basis coordinates"):
        for name in ("A1", "A2"):
            datum = build_root_datum(name)
            group = weyl_group(datum)
            basis = steinberg_basis(datum)
            for mu in product(range(-3, 4), repeat=datum.rank):
                coords = decompose_over_invariants(datum, monomial(mu), basis=basis)
                # the basis is certified free, so the coordinates it
                # returns are the unique ones
                assert set(coords) == set(group.elements)
                assert reconstruct_over_invariants(datum, coords, basis=basis) == monomial(mu)
        datum = build_root_datum("A1")
        group = weyl_group(datum)
        s = group.simple(1)
        basis = steinberg_basis(datum)
        x_inv = decompose_over_invariants(datum, monomial((-1,)), basis=basis)
        assert x_inv[group.identity] == IrredDecomp({(1,): 1})
        assert x_inv[s] == IrredDecomp({(0,): -1})
        x_sq = decompose_over_invariants(datum, monomial((2,)), basis=basis)
        assert x_sq[group.identity] == IrredDecomp({(0,): -1})
        assert x_sq[s] == IrredDecomp({(1,): 1})


def test_08_cover_round_trips():
    with criterion(8, "cover decomposition"):
        for matrix in ([[2]], [[3]], [[2, 0], [0, 2]]):
            cover = build_cover(matrix)
            rank = len(matrix)
            rng = random.Random(f"acceptance-8:{rank}:{cover.index}")
            for _ in range(100):
                v = seeded_elt(rng, rank, nterms=5, span=4)
                parts = decompose_cover(cover, v)
                assert set(parts) == set(cover.coset_reps)
                assert reconstruct_cover(cover, parts) == v
            assert pullback(cover, CharElt.zero()) == CharElt.zero()
            for _ in range(50):
                a = seeded_elt(rng, rank, nterms=3, span=3)
                b = seeded_elt(rng, rank, nterms=3, span=3)
                if a == b:
                    assert pullback(cover, a) == pullback(cover, b)
                else:
                    assert pullback(cover, a) != pullback(cover, b)


def test_09_conjugation_form_and_its_misprint_trap():
    with criterion(9, "conjugated composition form"):
        checks = 0
        flipped_failures = 0
        for name in ("A1", "A2"):
            datum = build_root_datum(name)
            group = weyl_group(datum)
            e_rho = monomial(datum.weyl_vector)
            e_neg_rho = monomial(tuple(-c for c in datum.weyl_vector))
            rng = random.Random(f"acceptance-9:{name}")
            for _ in range(50):
                u = seeded_elt(rng, datum.rank, nterms=4, span=3)
                for w in group:
                    lhs = partial_prime(datum, w, u)
                    assert lhs == e_rho * partial(datum, w, e_neg_rho * u)
                    checks += 1
                    if lhs != e_neg_rho * partial(datum, w, e_neg_rho * u):
                        flipped_failures += 1
        # deterministic witness that the sign-flipped prefactor is wrong
        datum = build_root_datum("A1")
        s = weyl_group(datum).simple(1)
        u0 = monomial(datum.weyl_vector)
        shifted = monomial((-1,)) * u0
        assert partial_prime(datum, s, u0) == monomial((1,)) * partial(datum, s, shifted)
        assert partial_prime(datum, s, u0) != monomial((-1,)) * partial(datum, s, shifted)
        assert flipped_failures >= 1
        print(
            "conjugated form dp_w(u) == e^rho * d_w(e^-rho * u): "
            f"verified on all {checks} checks (A1 and A2, every w, 50 inputs each)"
        )
        print(
            "flipped form e^-rho * d_w(e^-rho * u): failed on "
            f"{flipped_failures} of {checks} checks; witness A1, w = s_1, u = e^rho"
        )


def test_10_desk_scale_performance():
    with criterion(10, "desk-scale performance"):
        datum = build_root_datum("B3")
        group = weyl_group(datum)
        assert len(group) == 48
        rng = random.Random("acceptance-10")
        terms = {}
        while len(terms) < 1000:
            key = tuple(rng.randint(-6, 6) for _ in range(3))
            if key not in terms:
                c = rng.randint(-9, 9)
                terms[key] = c if c else 1
        u = CharElt(terms)
        start = time.perf_counter()
        v = top(datum, u, strict=False)
        top_elapsed = time.perf_counter() - start
        assert top_elapsed < 5.0, f"longest-element operator took {top_elapsed:.2f}s"
        for j in (1, 2, 3):
            assert weyl_act_simple(datum, j, v) == v
        start = time.perf_counter()
        proc = subprocess.run(
            weylkit_command() + ["selftest", "A1", "A2", "B2", "G2"],
            capture_output=True,
            text=True,
            timeout=200,
        )
        selftest_elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert "all suites passed" in proc.stdout
        assert selftest_elapsed < 180.0, f"selftest took {selftest_elapsed:.1f}s"
