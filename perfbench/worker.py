"""Runs one workload in a fresh interpreter and prints one JSON line.

Started by run.py with ``src`` on PYTHONPATH and WEYLKIT_STRICT removed from
the environment. Modes:

  setup   time the set-up alone: ``import weylkit`` plus the root data and
          Weyl groups of the workload's groups
  run     time the set-up (``import weylkit`` plus the root data and Weyl
          groups of the workload's groups), then a closed loop over exactly
          --rounds rounds, optionally traced (--trace); --in-process runs
          CLI ops through cli.main
  inputs  digest of the generated inputs of the first rounds (self-test)

Inputs are generated and converted to weylkit objects before each op's
timer starts, and outputs are checked after the round, untimed. With
tracing on, the tracer is uninstalled while checks run, so per-layer counts
cover set-up and the ops only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import GROUPS, Op, make_round  # noqa: E402

OP_TIMEOUT_S = 60.0
SCHEMA_PATH = Path("src/weylkit/schema/cli-output.schema.json")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


def setup_groups(wk, workload: str) -> None:
    for group in GROUPS[workload]:
        wk.weyl_group(wk.build_root_datum(group))


class Runner:
    """Prepares, runs and checks the ops of one workload."""

    def __init__(self, wk, in_process_cli: bool, tracer=None):
        self.wk = wk
        self.in_process_cli = in_process_cli
        self.tracer = tracer
        self.data: dict[str, object] = {}
        self._schema = None

    def datum(self, group: str):
        if group not in self.data:
            self.data[group] = self.wk.build_root_datum(group)
        return self.data[group]

    def elt(self, terms):
        return self.wk.CharElt(dict(terms))

    # -- prepare: plain data -> weylkit objects, untimed -----------------------

    def prepare(self, op: Op):
        wk = self.wk
        if op.kind == "top":
            terms, method = op.args
            return (self.datum(op.group), self.elt(terms), method)
        if op.kind == "cover":
            matrix, terms = op.args
            return ([list(row) for row in matrix], self.elt(terms))
        if op.kind == "tensor":
            lam, mu = op.args
            return (self.datum(op.group), lam, mu)
        if op.kind in ("induce", "coords"):
            return (self.datum(op.group), self.elt(op.args[0]))
        if op.kind == "to_basis":
            word, probes = op.args
            expr = None
            for kind, arg in word:
                atom = wk.OpExpr.m(self.elt(arg)) if kind == "m" else getattr(wk.OpExpr, kind)(arg)
                expr = atom if expr is None else expr * atom
            return (self.datum(op.group), expr, [self.elt(p) for p in probes])
        if op.kind == "cli":
            return op.args
        raise ValueError(f"unknown op kind {op.kind!r}")

    # -- run: the timed call ---------------------------------------------------

    def run(self, op: Op, prepared):
        wk = self.wk
        if op.kind == "top":
            datum, u, method = prepared
            return wk.top(datum, u, strict=False, method=method)
        if op.kind == "cover":
            matrix, u = prepared
            cover = wk.build_cover(matrix)
            return wk.reconstruct_cover(cover, wk.decompose_cover(cover, u))
        if op.kind == "tensor":
            datum, lam, mu = prepared
            product = wk.irreducible_character(datum, lam, strict=False) * wk.irreducible_character(
                datum, mu, strict=False
            )
            return wk.decompose_into_irreducibles(datum, product, strict=False)
        if op.kind == "induce":
            datum, u = prepared
            return wk.induce(datum, u, strict=False)
        if op.kind == "to_basis":
            datum, expr, _ = prepared
            return wk.to_basis(datum, expr, strict=False)
        if op.kind == "coords":
            datum, u = prepared
            return wk.decompose_over_invariants(datum, u)
        if op.kind == "cli":
            return self.run_cli(prepared[0])
        raise ValueError(f"unknown op kind {op.kind!r}")

    def run_cli(self, argv):
        if not self.in_process_cli:
            import subprocess

            proc = subprocess.run(
                [sys.executable, "-m", "weylkit.cli", *argv],
                capture_output=True,
                timeout=OP_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout
        import contextlib
        import io

        from weylkit import cli

        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.timed(f"cli.main.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(list(argv))
        return code, out.getvalue().encode()

    # -- check: untimed, and never the computation that was timed --------------

    def check(self, op: Op, prepared, out, outputs: list) -> None:
        wk = self.wk
        if op.kind == "top":
            datum, _, _ = prepared
            for j in range(1, datum.rank + 1):
                _require(wk.weyl_act_simple(datum, j, out) == out, f"top result moved by s_{j}")
            if op.pair >= 0:
                _require(out == outputs[op.pair], "top routes disagree")
        elif op.kind == "cover":
            _, u = prepared
            _require(out == u, "reconstruct_cover(decompose_cover(u)) != u")
        elif op.kind == "tensor":
            datum, lam, mu = prepared
            dim = wk.weyl_dimension
            _require(all(c > 0 for _, c in out.items()), "tensor product has a nonpositive multiplicity")
            total = sum(c * dim(datum, nu) for nu, c in out.items())
            _require(total == dim(datum, lam) * dim(datum, mu), "dimensions do not add up")
        elif op.kind == "induce":
            datum, u = prepared
            total = sum(c * wk.weyl_dimension(datum, nu) for nu, c in out.items())
            _require(total == sum(c * _dimension_polynomial(datum, mu) for mu, c in u.items()),
                     "induced dimension differs from the coefficient sum of top(u)")
        elif op.kind == "to_basis":
            datum, expr, probes = prepared
            for p in probes:
                _require(out.apply(datum, p, strict=False) == expr.apply(datum, p, strict=False),
                         "HeckeOp.apply differs from OpExpr.apply")
        elif op.kind == "coords":
            datum, u = prepared
            _require(wk.reconstruct_over_invariants(datum, out) == u, "reconstruction differs from u")
        elif op.kind == "cli":
            argv, expected = prepared
            code, stdout = out
            _require(code == 0, f"exit code {code}")
            _require(hashlib.sha256(stdout).hexdigest() == expected, "stdout differs from the recorded bytes")
            if "--json" in argv:
                self.schema().validate(json.loads(stdout))

    def schema(self):
        if self._schema is None:
            import jsonschema

            with SCHEMA_PATH.open() as fh:
                self._schema = jsonschema.Draft7Validator(json.load(fh))
        return self._schema


def _dimension_polynomial(datum, mu) -> int:
    """Weyl's dimension polynomial at any weight mu. It changes sign under the
    rho-shifted action and vanishes on its walls, so it equals the coefficient
    sum of top(e^mu); this checks induce without recomputing top."""
    shifted = [m + r for m, r in zip(mu, datum.weyl_vector)]
    num = den = 1
    for root in datum.positive_roots:
        num *= datum.pairing(shifted, root)
        den *= datum.pairing(datum.weyl_vector, root)
    return num // den


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _cache_counts(wk) -> dict[str, tuple[int, int]]:
    """(hits, misses) of the caches the per-layer hit ratios come from."""
    out = {}
    for name, module, attr in (
        ("weyl.orbit", wk.weyl, "_orbit_cached"),
        ("repring.irreducible_character", wk.repring, "_irreducible_cached"),
    ):
        cached = getattr(module, attr, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out[name] = (info.hits, info.misses) if info else (0, 0)
    return out


def run_rounds(args) -> dict:
    t0 = time.perf_counter()
    import weylkit as wk

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_groups(wk, args.workload)
    setup_s = time.perf_counter() - t0
    runner = Runner(wk, args.in_process, tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies: list[float] = []
    completed: list[bool] = []
    failures: list[str] = []
    cache_hits: dict[str, list[int]] = {}
    timed = 0.0
    started = time.monotonic()
    rounds = 0
    while True:
        ops = make_round(args.workload, args.seed, rounds)
        outputs: list = [None] * len(ops)
        prepared_all: list = [None] * len(ops)
        ok = [False] * len(ops)
        base = len(latencies)
        for i, op in enumerate(ops):
            if time.monotonic() - started > args.deadline:
                break
            before = _cache_counts(wk) if tracer else {}
            if tracer:
                tracer.op_id = len(latencies)
            elapsed = 0.0
            try:
                prepared = prepared_all[i] = runner.prepare(op)
                t0 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    outputs[i] = runner.run(op, prepared)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    elapsed = time.perf_counter() - t0
                ok[i] = True
            except Exception as exc:  # any failure of the code under test is counted
                failures.append(f"{op.kind} {op.group}: {type(exc).__name__}: {exc}"[:300])
            for name, (hits, misses) in (_cache_counts(wk) if tracer else {}).items():
                acc = cache_hits.setdefault(name, [0, 0])
                acc[0] += hits - before[name][0]
                acc[1] += misses - before[name][1]
            latencies.append(elapsed)
            completed.append(ok[i])
            timed += elapsed
        if tracer:
            tracer.restore()
        for i, op in enumerate(ops):
            if not ok[i]:
                continue
            try:
                runner.check(op, prepared_all[i], outputs[i], outputs)
            except Exception as exc:  # a failed check or a check that raised
                completed[base + i] = False
                failures.append(f"check {op.kind} {op.group}: {type(exc).__name__}: {exc}"[:300])
        if tracer:
            tracer.install()
        rounds += 1
        if rounds >= args.rounds or time.monotonic() - started > args.deadline:
            break
    if tracer:
        tracer.restore()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.in_process else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "completed": completed,
        "failures": failures,
        "timed_s": timed,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "strict_default": wk.strict_default(),
        "weylkit_strict_env": os.environ.get("WEYLKIT_STRICT"),
    }
    if tracer:
        layers = tracer.layer_metrics()
        for name, (hits, misses) in cache_hits.items():
            layers[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        if args.workload == "cli":
            layers["cli.import_s"] = _cli_import_s()
        result["layers"] = layers
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    return result


def _cli_import_s(repeats: int = 5) -> float:
    """Median time of ``import weylkit.cli`` in a fresh interpreter."""
    import statistics
    import subprocess

    code = "import time; t = time.perf_counter(); import weylkit.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def input_digest(workload: str, seed: int, rounds: int) -> str:
    h = hashlib.sha256()
    for r in range(rounds):
        for op in make_round(workload, seed, r):
            h.update(op.key().encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "inputs"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--spans", default="")
    parser.add_argument("--deadline", type=float, default=150.0)
    args = parser.parse_args()
    if args.mode == "setup":
        t0 = time.perf_counter()
        import weylkit

        setup_groups(weylkit, args.workload)
        result = {"setup_s": time.perf_counter() - t0}
    elif args.mode == "inputs":
        result = {"digest": input_digest(args.workload, args.seed, args.rounds)}
    else:
        result = run_rounds(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
