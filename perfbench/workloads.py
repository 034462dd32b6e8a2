"""Seeded inputs for the four benchmark workloads.

This module is plain data and does not import weylkit, so the inputs a seed
produces do not depend on the code under test. A workload run is a sequence
of rounds; a round is a fixed list of slots, and the seed draws the content
of every slot in every round. Keeping the slot list and the input shapes
fixed keeps the mix of cheap and costly operations the same from seed to
seed, so that medians and tails compare across seeds and commits.

An ``Op`` holds only tuples, ints and strings. ``Op.key()`` is its canonical
text, which the self-test compares across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from pathlib import Path

WORKLOADS = ("project", "tensor", "solve", "cli")

# Groups whose root datum and Weyl group a workload builds during set-up.
GROUPS = {
    "project": ("G2", "A3", "B3", "C3", "D4"),
    "tensor": ("A2", "B2", "G2", "A3", "B3", "C3", "D4"),
    "solve": ("A1", "A2", "B2", "C2", "G2", "A3"),
    "cli": ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"),
}

RANK = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C2": 2, "C3": 3, "D4": 4, "G2": 2}

CLI_POOL_PATH = Path(__file__).with_name("cli_pool.json")


@dataclass(frozen=True)
class Op:
    """One timed operation: a kind, the group it runs on, and plain-data args.

    ``pair`` is the index, within the same round, of an earlier op whose
    output this op's output must equal (the other ``top`` route).
    """

    kind: str
    group: str
    args: tuple
    pair: int = -1

    def key(self) -> str:
        return repr((self.kind, self.group, self.args, self.pair))


def random_terms(rng: random.Random, rank: int, nterms: int, span: int) -> tuple:
    """``nterms`` distinct weights in [-span, span]^rank with nonzero
    coefficients in [-9, 9]: the generator of acceptance criterion 10."""
    if nterms > (2 * span + 1) ** rank:
        raise ValueError("more terms than weights in the box")
    terms: dict[tuple[int, ...], int] = {}
    while len(terms) < nterms:
        key = tuple(rng.randint(-span, span) for _ in range(rank))
        if key not in terms:
            c = rng.randint(-9, 9)
            terms[key] = c if c else 1
    return tuple(sorted(terms.items()))


def small_terms(rng: random.Random, weights: list, max_terms: int) -> tuple:
    """1..max_terms distinct weights drawn from ``weights``, coefficients ±1, ±2."""
    chosen = rng.sample(weights, rng.randint(1, max_terms))
    return tuple(sorted((w, rng.choice((-2, -1, 1, 2))) for w in chosen))


def _box(rank: int, span: int) -> list:
    return list(product(range(-span, span + 1), repeat=rank))


def _det(m: tuple) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det(tuple(row[:j] + row[j + 1:] for row in m[1:]))
        for j in range(len(m))
    )


def cover_matrix(rng: random.Random, rank: int) -> tuple:
    """A square integer matrix with entries in [-3, 3] and 2 <= |det| <= 12."""
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank))
        if 2 <= abs(_det(m)) <= 12:
            return m


# --- project -----------------------------------------------------------------
# Big elements, no reuse between ops: the cost sits in divide_exact,
# weyl_act_simple and antisymmetrize. Each element is projected by both top
# routes as two ops; the B3 element is the acceptance-10 generator. The other
# elements fill most of their box, so the seed changes coefficients and
# little of the cost. Several cheaper elements per round put the median op
# and the tail rank inside classes of similar ops.
PROJECT_TOP = (
    # group, terms, span, elements per round
    ("B3", 1000, 6, 1),
    ("C3", 300, 3, 1),
    ("D4", 81, 1, 1),
    ("A3", 300, 3, 2),
    ("G2", 250, 8, 4),
)
PROJECT_COVER_RANKS = (2, 2, 3, 3)


def project_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for group, nterms, span, count in PROJECT_TOP:
        for _ in range(count):
            terms = random_terms(rng, RANK[group], nterms, span)
            ops.append(Op("top", group, (terms, "demazure")))
            ops.append(Op("top", group, (terms, "weyl"), pair=len(ops) - 1))
    for rank in PROJECT_COVER_RANKS:
        ops.append(Op("cover", "", (cover_matrix(rng, rank), random_terms(rng, rank, 150, 6))))
    return ops


# --- tensor ------------------------------------------------------------------
# Products of two irreducible characters, decomposed: the peel loop in
# repring, is_dominant, and reuse of the irreducible-character cache across
# ops. Rank-2 weights have entries 0..2, higher ranks 0..1. Entry sums are
# capped where a product grows past a few tenths of a second (README.md
# lists the pairs left out). Every round decomposes each allowed pair once.
# Within a group the pairs go from small to large, as a table is built: an
# op's cost depends on which characters earlier ops left in the cache, so a
# seeded order would move cost from op to op and the median and tail with
# it. The seed sets the order of the groups, the order of the two factors
# of each product, and the induce inputs. The square of chi(1,1,1) on B3
# has the worst peel-to-component ratio in reach.
TENSOR_PAIRS = (
    # group, max entry, cap on the sum of both weights' entries
    ("A2", 2, 12),
    ("B2", 2, 12),
    ("G2", 2, 12),
    ("A3", 1, 6),
    ("B3", 1, 4),
    ("C3", 1, 4),
    ("D4", 1, 3),
)
TENSOR_FIXED = (("B3", (1, 1, 1), (1, 1, 1)),)
# group, span, max terms
TENSOR_INDUCE = (("A2", 2, 8), ("B2", 2, 8), ("G2", 2, 8), ("A3", 1, 8), ("B3", 1, 8), ("C3", 1, 8), ("D4", 1, 4))


def _dominant_pairs(rank: int, top: int, cap: int) -> list:
    """Unordered pairs of nonzero dominant weights with entries 0..top and
    an entry sum of at most ``cap``, smallest sum first."""
    weights = [w for w in product(range(top + 1), repeat=rank) if any(w)]
    pairs = [(a, b) for i, a in enumerate(weights) for b in weights[i:] if sum(a) + sum(b) <= cap]
    return sorted(pairs, key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab))


def tensor_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    groups = list(TENSOR_PAIRS)
    rng.shuffle(groups)
    for group, top, cap in groups:
        for lam, mu in _dominant_pairs(RANK[group], top, cap):
            ops.append(Op("tensor", group, (lam, mu) if rng.random() < 0.5 else (mu, lam)))
    for group, lam, mu in TENSOR_FIXED:
        ops.append(Op("tensor", group, (lam, mu)))
    for group, span, max_terms in TENSOR_INDUCE:
        ops.append(Op("induce", group, (small_terms(rng, _box(RANK[group], span), max_terms),)))
    return ops


# --- solve -------------------------------------------------------------------
# Many tiny ring operations: to_basis eliminates over the fraction field, and
# decompose_over_invariants solves on a support box. Both costs depend on
# the input's shape, so every round has the same shapes: each group's
# to_basis gets the word shapes listed for it, with seeded simple roots and
# multipliers, and Steinberg coordinates run on seeded <= 3-term elements on
# A1 and A2 and on monomials at fixed weights, with seeded coefficients,
# elsewhere. Steinberg coordinates grow quickly away from 0 (README.md lists
# the costlier cases).
SOLVE_WORDS = (("d",), ("dp",), ("w", "m"), ("m", "d"), ("dp", "w", "d"), ("d", "m", "dp"))
SOLVE_BASIS = (
    ("A1", SOLVE_WORDS),
    ("A2", SOLVE_WORDS),
    ("B2", (("d",), ("w", "m"), ("dp", "w", "d"))),
    ("C2", (("dp",), ("m", "d"), ("d", "m", "dp"))),
    ("G2", (("w", "m"),)),
    ("A3", (("dp",), ("m", "d"))),
)
# group, elements drawn by small_terms (span, count), or fixed monomial weights
SOLVE_COORDS = (
    ("A1", (2, 4)),
    ("A2", (2, 4)),
    ("B2", ((0, 0), (1, 0), (0, 1), (-1, 1), (1, -1))),
    ("C2", ((0, 0), (1, 0), (0, 1), (-1, 1), (1, -1))),
    ("G2", ((0, 0), (1, 0))),
    ("A3", ((0, 0, 0), (0, 1, 0))),
)


def _two_terms(rng: random.Random, rank: int) -> tuple:
    a, b = rng.sample(_box(rank, 1), 2)
    return tuple(sorted(((a, rng.choice((-2, -1, 1, 2))), (b, rng.choice((-2, -1, 1, 2))))))


def solve_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for group, shapes in SOLVE_BASIS:
        rank = RANK[group]
        for shape in shapes:
            word = tuple(
                ("m", _two_terms(rng, rank)) if kind == "m" else (kind, rng.randint(1, rank)) for kind in shape
            )
            probes = tuple(small_terms(rng, _box(rank, 2), 3) for _ in range(2))
            ops.append(Op("to_basis", group, (word, probes)))
    for group, spec in SOLVE_COORDS:
        rank = RANK[group]
        if isinstance(spec[0], int):
            span, count = spec
            elements = [small_terms(rng, _box(rank, span), 3) for _ in range(count)]
        else:
            elements = [((w, rng.choice((-2, -1, 1, 2))),) for w in spec]
        ops.extend(Op("coords", group, (u,)) for u in elements)
    return ops


# --- cli ---------------------------------------------------------------------
# One CLI subprocess per op: interpreter start, import, parsing and cold
# caches on every call. Commands come from cli_pool.json, which holds each
# command with the SHA-256 of the stdout it printed at the commit that
# defined the benchmark. The seed picks CLI_PER_ROUND distinct commands per
# verb; selftest, about three import floors long, gets fewer.
CLI_SLOTS = (
    "info",
    "char",
    "apply",
    "decompose",
    "induce",
    "invariant-check",
    "steinberg",
    "cover",
    "selftest",
)
CLI_PER_ROUND = {"selftest": 2}
CLI_PER_ROUND_DEFAULT = 3


@lru_cache(maxsize=None)
def load_cli_pool() -> dict[str, list[dict]]:
    with CLI_POOL_PATH.open() as fh:
        entries = json.load(fh)
    pool: dict[str, list[dict]] = {slot: [] for slot in CLI_SLOTS}
    for entry in entries:
        pool[entry["argv"][0]].append(entry)
    return pool


def cli_round(rng: random.Random) -> list[Op]:
    pool = load_cli_pool()
    ops = []
    for slot in CLI_SLOTS:
        for entry in rng.sample(pool[slot], CLI_PER_ROUND.get(slot, CLI_PER_ROUND_DEFAULT)):
            ops.append(Op("cli", "", (tuple(entry["argv"]), entry["stdout_sha256"])))
    return ops


ROUNDS = {
    "project": project_round,
    "tensor": tensor_round,
    "solve": solve_round,
    "cli": cli_round,
}


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of round ``index`` of a run with ``seed``; each round has its
    own generator so that rounds can be drawn lazily and independently."""
    rng = random.Random(f"weylkit-bench:{workload}:{seed}:{index}")
    return ROUNDS[workload](rng)
