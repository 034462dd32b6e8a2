"""Write cli_pool.json: the commands the ``cli`` workload draws from, each with
the SHA-256 of the stdout it prints.

The pool is fixed data so that the benchmark can check stdout bytes against
the commit that recorded them, which guards the byte-identical-stdout rule.
Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/make_cli_pool.py

It refuses to write the pool if any command exits nonzero or prints --json
output that does not validate against the CLI schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import jsonschema  # noqa: E402

import weylkit as wk  # noqa: E402
from workloads import CLI_POOL_PATH, CLI_SLOTS, RANK, cover_matrix  # noqa: E402

PER_SLOT = 16


def _text(terms: dict) -> str:
    """The element as CLI text; negated if it would start with a minus sign,
    which argparse would take for an option."""
    text = str(wk.CharElt(terms))
    return str(-wk.CharElt(terms)) if text.startswith("-") else text


def _terms(rng: random.Random, rank: int, nterms: int, span: int) -> dict:
    return {
        tuple(rng.randint(-span, span) for _ in range(rank)): rng.choice((-2, -1, 1, 2))
        for _ in range(nterms)
    }


def _weight(rng: random.Random, rank: int) -> tuple:
    top = 2 if rank <= 2 else 1
    while True:
        w = tuple(rng.randint(0, top) for _ in range(rank))
        if any(w):
            return w


def _flags(rng: random.Random, rank: int, strict: bool = True) -> list[str]:
    flags = ["--json"] if rng.random() < 0.5 else []
    if strict and rank <= 2 and rng.random() < 0.4:
        flags.append("--strict")
    return flags


def _operator(rng: random.Random, rank: int) -> str:
    atoms = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("d", "dp", "w", "m", "top"))
        if kind == "top":
            atoms.append("top")
        elif kind == "m":
            atoms.append(f"m[{_text(_terms(rng, rank, 2, 1))}]")
        else:
            atoms.append(f"{kind}[{rng.randint(1, rank)}]")
    return "*".join(atoms)


def commands(rng: random.Random) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    groups = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2")
    out["info"] = [["info", g] + j for g in groups for j in ([], ["--json"])][:PER_SLOT]
    out["char"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2", "B2", "G2", "A3", "B3", "C3", "D4"))
        method = rng.choice(("demazure", "weyl", "both"))
        lam = ",".join(map(str, _weight(rng, RANK[g])))
        out["char"].append(["char", g, lam, "--method", method] + _flags(rng, RANK[g]))
    out["apply"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2", "B2", "G2"))
        rank = RANK[g]
        expr = _text(_terms(rng, rank, rng.randint(1, 3), 2))
        out["apply"].append(["apply", g, _operator(rng, rank), expr] + _flags(rng, rank))
    out["decompose"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2", "B2", "G2", "A3"))
        rank = RANK[g]
        a, b = (wk.irreducible_character(wk.build_root_datum(g), _weight(rng, rank), strict=False) for _ in range(2))
        out["decompose"].append(["decompose", g, f"({a})*({b})"] + _flags(rng, rank))
    out["induce"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2", "B2", "G2", "A3"))
        rank = RANK[g]
        expr = _text(_terms(rng, rank, rng.randint(1, 3), 2 if rank <= 2 else 1))
        out["induce"].append(["induce", g, expr] + _flags(rng, rank))
    out["invariant-check"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2", "B2", "C2", "G2", "A3"))
        rank = RANK[g]
        if rng.random() < 0.5:
            expr = str(wk.irreducible_character(wk.build_root_datum(g), _weight(rng, rank), strict=False))
        else:
            expr = _text(_terms(rng, rank, rng.randint(1, 3), 2))
        out["invariant-check"].append(["invariant-check", g, expr] + _flags(rng, rank, strict=False))
    out["steinberg"] = []
    for _ in range(PER_SLOT):
        g = rng.choice(("A1", "A2"))
        rank = RANK[g]
        expr = _text(_terms(rng, rank, rng.randint(1, 2), 1))
        out["steinberg"].append(["steinberg", g, "--decompose", expr] + _flags(rng, rank, strict=False))
    out["cover"] = []
    for _ in range(PER_SLOT):
        rank = rng.randint(1, 3)
        matrix = cover_matrix(rng, rank) if rank > 1 else ((rng.choice((-1, 1)) * rng.randint(2, 12),),)
        expr = _text(_terms(rng, rank, rng.randint(2, 5), 3))
        action = rng.choice(("pullback", "decompose"))
        out["cover"].append(
            ["cover", action, expr, "--matrix", json.dumps([list(r) for r in matrix])]
            + _flags(rng, rank, strict=False)
        )
    out["selftest"] = [["selftest", "A2", "--seed", str(s)] for s in range(PER_SLOT)]
    return out


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "WEYLKIT_STRICT"}
    env["PYTHONPATH"] = "src"
    with open("src/weylkit/schema/cli-output.schema.json") as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    pool = []
    by_slot = commands(random.Random("weylkit-bench:cli-pool"))
    for slot in CLI_SLOTS:
        for argv in by_slot[slot]:
            proc = subprocess.run(
                [sys.executable, "-m", "weylkit.cli", *argv], capture_output=True, env=env, timeout=120
            )
            if proc.returncode != 0:
                print(f"exit {proc.returncode}: {argv}\n{proc.stderr.decode()}", file=sys.stderr)
                return 1
            if "--json" in argv:
                validator.validate(json.loads(proc.stdout))
            pool.append({"argv": argv, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()})
    CLI_POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {len(pool)} commands to {CLI_POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
