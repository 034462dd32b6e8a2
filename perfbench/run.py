"""weylkit benchmark runner.

    python3 perfbench/run.py --workload project --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --selftest

Run from the repository root. Each workload run uses fresh interpreters
(perfbench/worker.py) with ``src`` on PYTHONPATH and WEYLKIT_STRICT removed,
and one closed-loop client: the next op starts when the previous one ends.

A run makes PASSES passes over the same seeded ops, each pass in a fresh
interpreter, so every pass starts with the same cold caches. A pass is a
fixed number of whole rounds (see workloads.py), sized from --seconds by the
time one round took at the commit that defined the benchmark. Every run of a
workload therefore does the same work, whatever the speed of the code under
test, and at that commit it measures for about --seconds on the reference
machine.

--trace 0 measures the end-to-end metrics. Each op's latency is the
slowest of its timings in the passes: on a shared host a busy neighbour
slows the same op 1.3 to 1.8 times most of the time, and undisturbed
windows come and go over tens of seconds, so one run may catch none. The
disturbed speed shows in every run, and the slowest timing reads it; the
fastest timing reads whichever speed a run happened to catch. ``op_p50_ms``,
``op_tail_ms`` and ``ops_per_s`` are taken over these latencies. ``setup_s`` is the
median of the passes' set-ups and of set-up-only workers started between
the passes. --trace 1 makes two passes, untraced and then traced, and
reports the per-layer metrics of the traced pass and its overhead (traced /
untraced ops per second). The names and units of both metric sets come
from BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it list every metric by name and unit,
the run environment, and any failures. Results and the traced run's spans
are also written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

PASSES = 5
SETUP_PROBES_PER_PASS = 2
# Seconds one round of any workload takes on the reference machine (Intel
# Xeon, 2 cores, Python 3.11.7) at the defining commit, while a neighbour
# slows it. A pass is --seconds / PASSES of rounds, at least one.
ROUND_S = 5.0
RUN_BUDGET_S = 170.0
OUT_DIR = Path(".perfbench")
# Per-layer values that are counts or ratios: they repeat exactly between two
# traced runs with one seed. Per-layer times not listed in BENCHMARK.json are
# printed with the traced results but left out of the JSON line.
COUNT_SUFFIXES = (".calls", ".term_pairs", ".terms_in", ".peels", ".components",
                  ".solves", ".unknowns", ".rows", ".cols", ".hit_ratio", ".useful_ratio")


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WEYLKIT_STRICT"}
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True,
        text=True,
        env=worker_env(),
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it:
    the 11th largest. Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(Path("src/weylkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "clients": 1,
    }


def git_commit() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = Path(".git") / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_untraced(workload: str, seed: int, seconds: int, spec: dict, deadline: float) -> tuple[dict, dict]:
    rounds = rounds_for(workload, seconds)
    passes, setups = [], []
    for _ in range(PASSES):
        # set-up-only workers between the passes, so that set-up is sampled
        # across the whole run and one slow spell cannot set the median
        setups += [call_worker(["--mode", "setup", "--workload", workload], deadline - time.monotonic())["setup_s"]
                   for _ in range(SETUP_PROBES_PER_PASS)]
        res = call_worker(
            ["--mode", "run", "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
             "--deadline", str(min((2 * seconds + 5) / PASSES, deadline - time.monotonic() - 15))],
            deadline - time.monotonic(),
        )
        passes.append(res)
        setups.append(res["setup_s"])
    # an op counts as completed when every pass completed it; a pass cut
    # short by its deadline leaves the ops after it unattempted
    n = min(len(p["latencies"]) for p in passes)
    done = [i for i in range(n) if all(p["completed"][i] for p in passes)]
    slowest = [max(p["latencies"][i] for p in passes) for i in done]
    tail_ms, tail_pct, beyond = tail(slowest) if slowest else (0.0, 0.0, 0)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(slowest) / sum(slowest) if slowest else 0.0,
        "op_p50_ms": 1000.0 * statistics.median(slowest) if slowest else 0.0,
        "op_tail_ms": 1000.0 * tail_ms,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    attempted = max(len(p["latencies"]) for p in passes)
    failed = attempted - len(done)
    extra = {
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "ops_completed": len(done),
        "passes": PASSES,
        "rounds_per_pass": rounds,
        "timed_s_per_pass": [p["timed_s"] for p in passes],
        "setup_s_samples": setups,
        "strict_default": passes[0]["strict_default"],
        "weylkit_strict_env": passes[0]["weylkit_strict_env"],
        "failures": [f for p in passes for f in p["failures"]][:20],
        "latencies_per_pass": [p["latencies"] for p in passes],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, extra


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds in one pass."""
    return max(1, round(seconds / PASSES / ROUND_S))


def run_traced(workload: str, seed: int, seconds: int, spec: dict, deadline: float) -> tuple[dict, dict]:
    rounds = rounds_for(workload, seconds)
    common = ["--mode", "run", "--workload", workload, "--seed", str(seed), "--rounds", str(rounds), "--in-process"]
    plain = call_worker(common + ["--deadline", str((deadline - time.monotonic()) / 3)], deadline - time.monotonic())
    spans = OUT_DIR / f"{workload}.spans.tsv.gz"
    traced = call_worker(
        common + ["--trace", "--spans", str(spans), "--deadline", str(deadline - time.monotonic() - 20)],
        deadline - time.monotonic(),
    )
    layers = dict(traced["layers"])
    peels = layers.get("repring.decompose.peels", 0)
    layers["repring.decompose.useful_ratio"] = layers.get("repring.decompose.components", 0) / peels if peels else 0.0

    def rate(res):
        done = sum(res["completed"])
        return done / res["timed_s"] if res["timed_s"] else 0.0

    untraced_rate, traced_rate = rate(plain), rate(traced)
    layers["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    metrics = {}
    for m in spec["per_layer"]:
        metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    failed = attempted - sum(plain["completed"]) - sum(traced["completed"])
    listed = {m["name"] for m in spec["per_layer"]}
    extra = {
        "rounds_per_pass": rounds,
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "spans_file": str(spans),
        "span_count": traced["spans"],
        "report_only": {k: v for k, v in sorted(layers.items()) if k not in listed and not k.endswith(COUNT_SUFFIXES)},
        "strict_default": traced["strict_default"],
        "weylkit_strict_env": traced["weylkit_strict_env"],
        "failures": (plain["failures"] + traced["failures"])[:20],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, extra


def run_one(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = environment(workload, seed, seconds, trace)
    fn = run_traced if trace else run_untraced
    result, extra = fn(workload, seed, seconds, spec, deadline)
    result = {"correct": result["failed"] == 0, **result}
    print(f"# weylkit benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("# env " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    if not trace:
        print(f"{'ops_failed_frac':48s} {extra['ops_failed_frac']!r:>24} frac")
        print(f"# {PASSES} passes of {extra['rounds_per_pass']} round(s), each op's slowest timing; op_tail_ms is "
              f"the p{extra['op_tail_percentile']:.2f} latency, {extra['op_tail_samples_beyond']} of "
              f"{extra['ops_completed']} completed ops beyond it")
    else:
        print(f"# trace overhead: traced / untraced ops per second = "
              f"{result['metrics'].get('trace.overhead_ratio', {}).get('value')}")
        for name, value in extra["report_only"].items():
            print(f"{name:48s} {value!r:>24} s  (printed only)")
    for failure in extra["failures"]:
        print(f"# FAILED {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}.trace{trace}.json").write_text(
        json.dumps({"env": env, "result": result, "details": extra}, indent=1) + "\n"
    )
    return result


def selftest() -> int:
    """Same seed: identical inputs (in two interpreters) and identical
    per-layer counts over two traced runs; another seed: other inputs."""
    failures = 0
    for workload in WORKLOADS:
        digests = [
            call_worker(["--mode", "inputs", "--workload", workload, "--seed", str(s), "--rounds", "3"], 120)["digest"]
            for s in (1, 1, 2)
        ]
        same, differs = digests[0] == digests[1], digests[0] != digests[2]
        runs = [
            call_worker(["--mode", "run", "--workload", workload, "--seed", "1", "--rounds", "1", "--trace",
                         "--in-process"], 170)
            for _ in range(2)
        ]
        counts = [{k: v for k, v in r["layers"].items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
        mismatched = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        passed = [all(r["completed"]) for r in runs]
        ok = same and differs and not mismatched and all(passed)
        failures += not ok
        print(f"{workload:8s} same-seed inputs identical: {same}; other seed differs: {differs}; "
              f"{len(counts[0])} per-layer counts identical: {not mismatched}; checks passed: {all(passed)}"
              + (f"; differing: {mismatched}" if mismatched else ""))
    print("selftest " + ("passed" if not failures else f"FAILED ({failures} workloads)"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not Path("src/weylkit/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("run from the root of a weylkit checkout (src/weylkit and BENCHMARK.json are missing)",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args.seed, args.seconds, args.trace, spec) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
