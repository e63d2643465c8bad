#!/usr/bin/env python3
"""Collect benchmark runs over seeds, measure their spread, compare two sets.

    python3 perfbench/compare.py collect OUT.jsonl --workloads star_csma,mesh_csma \\
        --seeds 1-10 [--seconds N] [--trace 0]
    python3 perfbench/compare.py spread OUT.jsonl
    python3 perfbench/compare.py compare BASE.jsonl NEW.jsonl

`collect` runs perfbench/run.py once per (workload, seed) and appends one
record per run (--seconds defaults to BENCHMARK.json's run_seconds). `spread` prints, per workload and end-to-end metric, the
median and the quartile distance (Python's statistics.quantiles(n=4)) as a
share of the median, against the metric's bound from BENCHMARK.json.
`compare` flags every (workload, metric) whose median in NEW is worse than
in BASE by more than the bound, and exits 1 if any is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def load_bounds(path=BENCHMARK):
    spec = json.loads(Path(path).read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path):
    """-> {workload: {metric: [values]}} from a collect file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        per_metric = runs.setdefault(record["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def spread(values):
    """Quartile distance as a share of the median."""
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return 0.0 if len(values) < 2 else float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def worse_by(base, new, better):
    """Share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def compare(base_runs, new_runs, bounds):
    """-> list of (workload, metric, base median, new median, worse share,
    bound, regressed) for every pair both sets measured."""
    rows = []
    for workload in sorted(base_runs):
        for name, base_values in sorted(base_runs[workload].items()):
            new_values = new_runs.get(workload, {}).get(name)
            if name not in bounds or not new_values:
                continue
            b = statistics.median(base_values)
            n = statistics.median(new_values)
            share = worse_by(b, n, bounds[name]["better"])
            bound = bounds[name]["bound"]
            rows.append((workload, name, b, n, share, bound, share > bound))
    return rows


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_collect(args):
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(done.stdout + done.stderr, file=sys.stderr)
                    print(f"{workload} seed {seed}: exit {done.returncode}")
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()))
    return 0


def cmd_spread(args):
    bounds = load_bounds()
    ok = True
    for workload, per_metric in sorted(load_runs(args.runs).items()):
        for name, values in sorted(per_metric.items()):
            bound = bounds.get(name, {}).get("bound")
            s = spread(values)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if s < bound / 3 else
                           "within bound" if s <= bound else "TOO NOISY")
                ok = ok and (s <= bound or name == "setup_s")
            print(f"{workload:11s} {name:20s} n={len(values):2d} "
                  f"median={statistics.median(values):<12.6g} "
                  f"spread={s:7.2%} bound={bound} {verdict}")
    return 0 if ok else 1


def cmd_compare(args):
    rows = compare(load_runs(args.base), load_runs(args.new), load_bounds())
    for workload, name, b, n, share, bound, regressed in rows:
        print(f"{workload:11s} {name:20s} base={b:<12.6g} new={n:<12.6g} "
              f"worse by {share:+7.2%} (bound {bound:.0%})"
              + ("  REGRESSED" if regressed else ""))
    return 1 if any(r[-1] for r in rows) else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads(BENCHMARK.read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("spread")
    p.add_argument("runs")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
