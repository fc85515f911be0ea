#!/usr/bin/env python3
"""The ledger: churnstore's benchmark harness.

Builds the engine from source, runs one workload, checks its outputs and
prints every metric by name with its unit. The metric catalogue (names,
units, bounds) is BENCHMARK.json at the repository root; ledger/README.md
explains the workloads and how to read the numbers.

    python3 ledger/run.py --workload search-storm --seed 1 --seconds 30 --trace 0
    python3 ledger/run.py --workload soup-50k --seed 1 --seconds 30 --trace 1
    python3 ledger/run.py --calibrate 10 --vary-seed --out ledger/baseline.json
    python3 ledger/run.py --smoke

A run starts the ledger binary once per repetition, so each repetition is its
own process and its peak RSS is its own. An untraced run (--trace 0) sets the
workload up three times, each in its own process, and measures it in one of
them: after the ramp, that process forks about --seconds worth of
measurement windows (at least three), one after another, each running the
same rounds from the same state. Times are process CPU times scaled to a
quiet core by the host probe timed next to them, and each measured round
counts at its median over the windows (README.md, Noise). A traced run
(--trace 1) makes three repetitions: untraced, traced, and traced at 4
shards, and reports the per-layer metrics of the traced unsharded one.
Repetitions are unsharded (shards=1) unless said otherwise.

The last line of standard output is one JSON object:
    {"correct": true, "attempted": 1800, "failed": 0,
     "metrics": {"rounds_per_s": {"value": 20.1, "unit": "1/s"}, ...}}
Exit status: 0 when every correctness gate passes, 1 when one fails (the
result line is still printed, with "correct": false), 2 when the build or a
repetition fails (no result line).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-ledger"  # the root .gitignore's build*/ covers it
BINARY = BUILD / "ledger"

# Repetitions run the unsharded round (shards=1, no pool), the engine's
# default; only an unsharded ledger can fork its windows. The traced run
# adds one repetition at SCALED_SHARDS for the scaling ratios.
SCALED_SHARDS = 4
# setup_s is the median of SETUPS set-ups. The window count is
# max(MIN_WINDOWS, seconds // WINDOW_SECONDS[workload]): it follows from
# --seconds alone, never from how fast the host happens to be.
# WINDOW_SECONDS is a run's wall time per window, set-ups and ramp
# included, on the calibration host.
SETUPS = 3
MIN_WINDOWS = 3
REP_TIMEOUT_S = 150
# A CPU time t measured while the HostProbe (ledger.cpp) units took c and m
# milliseconds counts as
#     t * (PROBE_COMPUTE_MS / c) ** COMPUTE_EXPONENT
#       * (PROBE_MEMORY_MS / m) ** MEMORY_EXPONENT,
# its time on a quiet core. PROBE_*_MS are the units' times on a quiet core
# of the calibration host (their 5th percentiles over a calibration); the
# exponents fit the engine's slowdowns there (README.md, Noise). Two builds
# compared on one host get the same scaling for the same probe readings.
PROBE_COMPUTE_MS = 0.21
PROBE_MEMORY_MS = 0.44
COMPUTE_EXPONENT = 0.5
MEMORY_EXPONENT = 1.0

# Ledger arguments per workload; README.md says why each one exists. The
# stack workloads keep the engine's default search deadline (4 tau): search
# committees live until deadline+2, so the deadline sets how many committees
# and landmarks a round maintains. A benchmark workload should not fail
# operations, so none uses erasure coding (at n <= 8192 about 1% of its
# searches time out).
WORKLOADS = {
    "soup-50k": {
        "ledger": "soup", "n": 50000, "walk-rate": 0.25, "walk-t": 0.75,
        "walk-window": 1.0, "measure-rounds": 100,
    },
    "stack-4k": {
        "ledger": "stack", "n": 4096, "items": 64, "stores": 1,
        "searches": 2, "measure-rounds": 100,
    },
    "search-storm": {
        "ledger": "stack", "n": 4096, "items": 64, "searches": 6,
        "measure-rounds": 100,
    },
    "store-maintain": {
        "ledger": "stack", "n": 4096, "items": 512, "stores": 2,
        "searches": 2, "measure-rounds": 100,
    },
}
WINDOW_SECONDS = {"soup-50k": 5.4, "stack-4k": 5.3, "search-storm": 8.7,
                  "store-maintain": 9.5}

# --smoke: the same workloads at tiny n and 8 measured rounds.
SMOKE = {
    "soup-50k": {"n": 4096, "measure-rounds": 8},
    "stack-4k": {"n": 1024, "items": 8, "measure-rounds": 8},
    "search-storm": {"n": 1024, "items": 8, "measure-rounds": 8},
    "store-maintain": {"n": 1024, "items": 32, "measure-rounds": 8},
}

# Outputs that are a pure function of the seed and the workload: identical
# across repetitions and across shard counts, or the engine is wrong. Heap
# and arena counters are left out: allocation patterns are per shard.
DETERMINISTIC = [
    "bits_per_node_round", "requests_completed", "ops_attempted", "ops_failed",
    "walk.tokens_alive", "walk.tokens_completed", "walk.tokens_lost",
    "walk.completion_ratio", "net.messages", "net.bits", "net.dropped",
    "net.drop_ratio", "committee.formed", "committee.lost",
    "landmark.created", "landmark.collisions", "search.active",
    "search.issued", "search.censored", "search.ok_frac", "store.attempted",
    "store.ok_frac", "store.items_lost", "search_latency_rounds",
]

# Per-layer values read straight from the traced unsharded repetition: layer
# times (traced only) and work counters. 0 where the workload lacks the layer.
LAYER_VALUES = [
    "net.churn_ms", "walk.ms", "walk.prologue_ms", "walk.phase1_ms",
    "walk.merge_ms", "committee.ms", "landmark.ms", "store.ms", "search.ms",
    "net.deliver_ms", "core.dispatch_ms", "core.other_ms", "api.store_us",
    "api.search_us", "walk.mtokens_per_s",
    "walk.tokens_alive", "walk.tokens_completed", "walk.tokens_lost",
    "walk.completion_ratio", "net.messages", "net.bits", "net.dropped",
    "net.drop_ratio", "committee.formed", "committee.lost",
    "landmark.created", "landmark.collisions", "search.active",
    "util.heap_allocs", "util.heap_bytes", "util.arena_high_water_mb",
    "util.arena_fresh_blocks", "search.ok_frac", "store.ok_frac",
    "store.items_lost",
]
# Layers whose 1-shard / 4-shard time ratio is reported.
SCALED_LAYERS = [
    "net.churn_ms", "walk.ms", "committee.ms", "landmark.ms", "search.ms",
    "net.deliver_ms", "core.dispatch_ms",
]
MIN_TIMED_COVERAGE = 0.95


class RunError(Exception):
    """The build or a repetition failed; there is no result to report."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def pool_threads() -> int:
    """Pool workers of the sharded repetition: nproc - 2, so with the helping
    caller one core stays free for the host."""
    return max(1, len(os.sched_getaffinity(0)) - 2)


def build() -> None:
    """Configures once, then (re)builds the ledger target; a no-op when fresh."""
    def step(cmd: list[str]) -> None:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RunError(f"build step failed: {' '.join(cmd)}")

    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    step(["cmake", "--build", str(BUILD), "--target", "ledger",
          "-j", str(len(os.sched_getaffinity(0)))])


def ledger(args: dict, seed: int, traced: bool, shards: int = 1,
           windows: int = 0) -> list[dict]:
    """One repetition in its own process; returns the JSON output of each
    of its measurement windows (one when windows == 0)."""
    threads = pool_threads() if shards > 1 else 0
    argv = [str(BINARY)] + [f"{k}={v}" for k, v in args.items()] + [
        f"seed={seed}", f"shards={shards}", f"threads={threads}",
        f"windows={windows}", f"traced={'true' if traced else 'false'}"]
    # CHURNSTORE_<KEY> variables are defaults for every ledger key; drop them
    # so the workload is exactly what WORKLOADS says.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHURNSTORE_")}
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"repetition timed out after {REP_TIMEOUT_S} s: {argv}") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"repetition failed (exit {proc.returncode}): {argv}")
    outs = [json.loads(line) for line in proc.stdout.splitlines()]
    if len(outs) != max(1, windows):
        raise RunError(f"expected {max(1, windows)} window outputs, got "
                       f"{len(outs)}: {argv}")
    return outs


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quiet(ms: float, compute_ms: float, memory_ms: float) -> float:
    """A CPU time measured while the probe units took compute_ms and
    memory_ms, as its time on a quiet core (README.md, Noise)."""
    return (ms * (PROBE_COMPUTE_MS / compute_ms) ** COMPUTE_EXPONENT
            * (PROBE_MEMORY_MS / memory_ms) ** MEMORY_EXPONENT)


def quiet_rounds(window: dict) -> list[float]:
    """The window's round CPU times, each scaled by the probe timed just
    before it."""
    return [quiet(ms, c, m) for ms, c, m in zip(
        window["round_cpu_ms"], window["probe_compute_ms"],
        window["probe_memory_ms"])]


def quiet_setup(rep: dict) -> float:
    return quiet(rep["setup_cpu_s"], rep["setup_probe_compute_ms"],
                 rep["setup_probe_memory_ms"])


def gate_identical(reps: list[dict], label: str, failures: list[str]) -> None:
    for key in DETERMINISTIC:
        values = [rep.get(key) for rep in reps]
        if any(v != values[0] for v in values):
            failures.append(f"{label}: {key} differs across repetitions: {values}")
    if any(rep["walk.conserved"] != 1 for rep in reps):
        failures.append(f"{label}: walk tokens not conserved")


def run_untraced(args: dict, seed: int, windows: int
                 ) -> tuple[dict, list[dict], list[str]]:
    setups = [ledger(dict(args, **{"measure-rounds": 0}), seed, traced=False)[0]
              for _ in range(SETUPS - 1)]
    runs = ledger(args, seed, traced=False, windows=windows)
    failures: list[str] = []
    gate_identical(runs, "untraced", failures)
    # The windows start from one state, so round i is the same work in each;
    # its median over them sets aside a window the host disturbed.
    rounds = [statistics.median(ms) for ms in zip(*map(quiet_rounds, runs))]
    seconds = sum(rounds) / 1e3
    metrics = {
        "rounds_per_s": len(rounds) / seconds,
        "requests_per_s": runs[0]["requests_completed"] / seconds,
        "round_ms_p50": quantile(rounds, 0.50),
        "round_ms_p90": quantile(rounds, 0.90),
        "bits_per_node_round": runs[0]["bits_per_node_round"],
        "setup_s": statistics.median(map(quiet_setup, setups + runs[:1])),
        "maxrss_mb": max(r["maxrss_mb"] for r in runs),
    }
    wall = sum(sum(r["round_ms"]) for r in runs) / windows
    log(f"{windows} windows; a window's rounds took {wall / 1e3:.2f} s of wall "
        f"time, {seconds:.2f} s on a quiet core")
    return metrics, runs, failures


def run_traced(args: dict, seed: int) -> tuple[dict, list[dict], list[str]]:
    base = ledger(args, seed, traced=False)[0]
    t1 = ledger(args, seed, traced=True)[0]
    t4 = ledger(args, seed, traced=True, shards=SCALED_SHARDS)[0]
    reps = [base, t1, t4]
    failures: list[str] = []
    # The traced soup runs its three step() hooks one at a time; the
    # untraced repetition calls step(). Both must reach the same state, as
    # must 1 and 4 shards.
    gate_identical(reps, "untraced vs traced S=1 vs traced S=4", failures)

    metrics = {key: t1.get(key, 0.0) for key in LAYER_VALUES}
    lat = t1["search_latency_rounds"]
    metrics["search.latency_p50_rounds"] = quantile(lat, 0.50) if lat else 0.0
    metrics["search.latency_p95_rounds"] = quantile(lat, 0.95) if lat else 0.0
    metrics["search.latency_samples"] = len(lat)
    for key in SCALED_LAYERS:
        metrics[f"{key}.s1_over_s4"] = t1[key] / t4[key] if t4.get(key) else 0.0
    metrics["round_ms.s1_over_s4"] = (statistics.fmean(t1["round_ms"]) /
                                      statistics.fmean(t4["round_ms"]))
    # From median round times: one repetition per side, and the refresh
    # spikes of store-maintain would swamp a mean.
    metrics["harness.trace_overhead_frac"] = 1.0 - (
        statistics.median(quiet_rounds(base)) / statistics.median(quiet_rounds(t1)))
    # How much slower than a quiet core the untraced repetition ran: wall
    # time over time on a quiet core.
    metrics["harness.host_slowdown"] = sum(base["round_ms"]) / sum(quiet_rounds(base))
    coverage = min(1.0 - t["core.other_ms"] / statistics.fmean(t["round_ms"])
                   for t in (t4, t1))
    metrics["harness.timed_coverage"] = coverage
    if coverage < MIN_TIMED_COVERAGE:
        failures.append(f"timed layers cover {coverage:.3f} of round wall time, "
                        f"below {MIN_TIMED_COVERAGE}")
    return metrics, reps, failures


def host_facts(reps: list[dict]) -> dict:
    thp = "unknown"
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
        thp = text[text.index("[") + 1:text.index("]")]
    except (OSError, ValueError):
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    rep = reps[0]
    return {
        "nproc": len(os.sched_getaffinity(0)), "shards": rep["shards"],
        "scaled_shards": SCALED_SHARDS, "scaled_pool_threads": pool_threads(),
        "thp": thp, "pmu": rep["pmu"],
        "heap_sentinel": rep["heap_sentinel"], "nt_stores": rep["nt_stores"],
        "build_type": "Release", "compiler": rep["compiler"], "git_sha": sha,
        "repetitions": len(reps),
    }


def window_count(workload: str, seconds: float) -> int:
    return max(MIN_WINDOWS, int(seconds // WINDOW_SECONDS[workload]))


def one_run(workload: str, seed: int, windows: int, trace: bool,
            overrides: dict | None = None) -> tuple[dict, int, dict]:
    """Runs one workload, untraced with `windows` measurement windows or
    traced; returns (result object, exit status, host facts)."""
    args = dict(WORKLOADS[workload], **(overrides or {}))
    if trace:
        values, runs, failures = run_traced(args, seed)
        section = "per_layer"
    else:
        values, runs, failures = run_untraced(args, seed, windows)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue()[section]}
    missing = sorted(set(units) - set(values))
    if missing:
        failures.append(f"metrics not computed: {missing}")
    for name, value in values.items():
        if not math.isfinite(value):
            failures.append(f"{name} is not finite: {value}")
    host = host_facts(runs)
    log(f"host: {json.dumps(host)}")
    for failure in failures:
        log(f"GATE FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": int(sum(r["ops_attempted"] for r in runs)),
        "failed": int(sum(r["ops_failed"] for r in runs)),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    return result, 0 if not failures else 1, host


def print_result(workload: str, result: dict) -> None:
    print(f"# {workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"#   {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


def calibrate(k: int, seed: int, vary_seed: bool, seconds: float,
              out: str | None) -> int:
    """K interleaved untraced runs of every workload: median, quartiles and
    the bound each spread supports, per metric. Every run uses `seed`, as a
    comparison of two builds does; with vary_seed run i uses seed + i, so
    the spread also holds the variation between seeds."""
    if k < 5:
        raise SystemExit("--calibrate needs K >= 5")
    names = list(WORKLOADS)
    samples = {w: {} for w in names}
    ops = {w: {"attempted": 0, "failed": 0} for w in names}
    for i in range(k):
        run_seed = seed + i if vary_seed else seed
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            result, status, host = one_run(w, run_seed, window_count(w, seconds),
                                           trace=False)
            if status:
                log(f"calibration run {w} seed {run_seed} failed its gates")
                return 1
            for name, m in result["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            for key in ops[w]:
                ops[w][key] += result[key]
            log(f"calibrate {i + 1}/{k} {w}: failed={result['failed']}, " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()))
    bounds = {m["name"]: m["bound"] for m in catalogue()["end_to_end"]}
    table = {}
    # A bound is the larger of 10% and 3 x IQR/median; one above 20% means
    # the workload needs more measured work, not a wider bound.
    print(f"{'workload':16s} {'metric':22s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s} {'needs':>6s}")
    for w in names:
        table[w] = {}
        for name, xs in samples[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            needs = max(0.10, 3 * spread)
            table[w][name] = {"median": med, "q1": q1, "q3": q3, "n": len(xs),
                              "spread": spread, "suggested_bound": needs}
            flag = "  <-- over bound" if needs > bounds[name] else ""
            print(f"{w:16s} {name:22s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bounds[name]:6.2f} {needs:6.3f}{flag}")
    if out:
        doc = {"seeds": [seed, seed + k - 1] if vary_seed else [seed],
               "seconds": seconds, "host": host, "operations": ops,
               "workloads": table}
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def smoke() -> int:
    """Every workload at tiny n, untraced and traced: the result line parses
    and carries every BENCHMARK.json metric with its unit."""
    cat = catalogue()
    start = time.monotonic()
    bad = 0
    for w in WORKLOADS:
        for trace in (False, True):
            result, status, _ = one_run(w, 1, 1, trace, SMOKE[w])
            parsed = json.loads(json.dumps(result))
            section = cat["per_layer" if trace else "end_to_end"]
            for m in section:
                got = parsed["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(
                        got["value"], (int, float)):
                    log(f"smoke {w} trace={int(trace)}: {m['name']} missing or malformed")
                    bad += 1
            if status or parsed["attempted"] < 1:
                log(f"smoke {w} trace={int(trace)}: gates failed")
                bad += 1
    log(f"smoke: {'ok' if not bad else f'{bad} problems'} in "
        f"{time.monotonic() - start:.1f} s")
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--calibrate", type=int, metavar="K")
    p.add_argument("--vary-seed", action="store_true",
                   help="with --calibrate: run i uses seed + i")
    p.add_argument("--out", help="with --calibrate: write the table as JSON here")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    try:
        build()
        if a.smoke:
            return smoke()
        if a.calibrate is not None:
            return calibrate(a.calibrate, a.seed, a.vary_seed, a.seconds, a.out)
        if a.workload is None:
            p.error("one of --workload, --calibrate or --smoke is required")
        result, status, _ = one_run(a.workload, a.seed,
                                    window_count(a.workload, a.seconds),
                                    bool(a.trace))
        print_result(a.workload, result)
        return status
    except RunError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
