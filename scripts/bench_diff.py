#!/usr/bin/env python3
"""Benchmark regression gate (throughput + maxrss).

Gate mode (default): runs a fresh `bench_driver` scenario at the gate size
and compares each (n, shards) row against the checked-in baseline JSON
(BENCH_soup_step.json or BENCH_capacity.json):

  * throughput (Mtokens/sec for soup_step, rounds/sec for capacity) must not
    drop more than --threshold (default 20%),
  * maxrss MB must not rise more than --rss-threshold (default 10%).

Throughput was recorded on a specific host, so cross-host runs (CI) can
drift for reasons that are not code regressions — the CI throughput step is
non-blocking (continue-on-error) and exists to surface the diff in the job
log. Memory, however, is a property of the code, not the host: the CI
maxrss step (--gate maxrss) IS blocking. On the baseline host both gates
are real:

    python3 scripts/bench_diff.py                      # soup_step, both gates
    python3 scripts/bench_diff.py --scenario capacity  # capacity bench
    python3 scripts/bench_diff.py --gate maxrss        # memory only (CI)
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SCENARIOS = {
    "soup_step": {
        "baseline": "BENCH_soup_step.json",
        "metric": "Mtokens/sec",
        "extra": [],
    },
    "capacity": {
        "baseline": "BENCH_capacity.json",
        "metric": "rounds/sec",
        "extra": [],
    },
}


def load_rows(text: str):
    """Parse the driver's json=true output (a JSON array of row objects)."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("expected a JSON array of benchmark rows")
    return {(int(r["n"]), int(r["shards"])): r for r in rows}


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--driver", default=str(repo / "build" / "bench_driver"))
    ap.add_argument("--scenario", choices=sorted(SCENARIOS), default="soup_step")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: the scenario's BENCH file)")
    ap.add_argument("--n", type=int, default=16384)
    ap.add_argument("--shard-sweep", default="1,4,16")
    ap.add_argument("--steps", type=int, default=64,
                    help="timed rounds (soup_step only)")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="max tolerated fractional throughput drop per row",
    )
    ap.add_argument(
        "--rss-threshold",
        type=float,
        default=0.10,
        help="max tolerated fractional maxrss increase per row",
    )
    ap.add_argument(
        "--gate",
        choices=["throughput", "maxrss", "both"],
        default="both",
        help="which comparisons can fail the run (CI runs maxrss blocking, "
        "throughput non-blocking)",
    )
    ap.add_argument(
        "--advisory",
        action="store_true",
        help="report out-of-tolerance rows but exit 0 (used by the "
        "observability-overhead check: tracing-disabled soup_step should "
        "stay within --threshold 0.02 of BENCH_soup_step.json, but "
        "cross-host throughput noise must not block)",
    )
    args = ap.parse_args()

    scen = SCENARIOS[args.scenario]
    metric = scen["metric"]
    baseline_path = Path(args.baseline) if args.baseline else repo / scen["baseline"]
    baseline = load_rows(baseline_path.read_text())
    cmd = [
        args.driver,
        f"--scenario={args.scenario}",
        f"n={args.n}",
        f"shard-sweep={args.shard_sweep}",
        "json=true",
    ]
    if args.scenario == "soup_step":
        cmd.append(f"steps={args.steps}")
    cmd += scen["extra"]
    print("+", " ".join(cmd), flush=True)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    fresh = load_rows(out.stdout)

    failed = []
    compared = 0
    print(
        f"{'n':>8} {'shards':>6} {'base ' + metric:>16} {'fresh':>10} "
        f"{'delta':>8} {'base rss':>9} {'fresh':>8} {'delta':>8}"
    )
    for key, row in sorted(fresh.items()):
        base_row = baseline.get(key)
        if base_row is None or key[0] != args.n:
            continue
        compared += 1
        old = float(base_row[metric])
        new = float(row[metric])
        delta = (new - old) / old if old > 0 else 0.0
        old_rss = float(base_row.get("maxrss MB", 0.0))
        new_rss = float(row.get("maxrss MB", 0.0))
        rss_delta = (new_rss - old_rss) / old_rss if old_rss > 0 else 0.0
        flags = []
        if args.gate in ("throughput", "both") and delta < -args.threshold:
            failed.append((key, metric, old, new, delta))
            flags.append("THROUGHPUT")
        if args.gate in ("maxrss", "both") and rss_delta > args.rss_threshold:
            failed.append((key, "maxrss MB", old_rss, new_rss, rss_delta))
            flags.append("MAXRSS")
        flag = ("  << " + "+".join(flags)) if flags else ""
        print(
            f"{key[0]:>8} {key[1]:>6} {old:>16.2f} {new:>10.2f} "
            f"{delta:>+7.1%} {old_rss:>9.1f} {new_rss:>8.1f} "
            f"{rss_delta:>+7.1%}{flag}"
        )

    if compared == 0:
        print(
            f"bench_diff: no baseline rows at n={args.n} in {baseline_path.name}",
            file=sys.stderr,
        )
        return 2
    if failed:
        for key, what, old, new, delta in failed:
            print(
                f"bench_diff: {args.scenario} n={key[0]} shards={key[1]} "
                f"{what}: {old:.2f} -> {new:.2f} ({delta:+.1%})",
                file=sys.stderr,
            )
        print(
            f"bench_diff: {len(failed)} comparison(s) outside tolerance "
            f"(throughput -{args.threshold:.0%} / maxrss +{args.rss_threshold:.0%})",
            file=sys.stderr,
        )
        if args.advisory:
            print("bench_diff: --advisory: reporting only, not failing",
                  file=sys.stderr)
            return 0
        return 1
    print(
        f"bench_diff: {compared} row(s) within tolerance "
        f"(throughput -{args.threshold:.0%} / maxrss +{args.rss_threshold:.0%}, "
        f"gate={args.gate})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
