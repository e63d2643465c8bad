#!/usr/bin/env python3
"""Braidio benchmark: one command for every workload (perfbench/README.md).

    python3 perfbench/run.py --workload star_csma --seed 1 --seconds 10 --trace 0

Builds the harness (CMake, Release) from the checkout this file sits in,
runs one workload in one process, checks its outputs, prints every metric
by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": 49, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 makes a separate
traced run that reports the per-layer metrics and writes a Chrome trace.
The exit code is 0 only when every output check passed.

    python3 perfbench/run.py --record-expected

re-records perfbench/expected.json (the digests the correctness gate
compares against) for the default and held-out seeds; do that only for a
deliberate change of the simulated outputs, and say so in CHANGES.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ["star_csma", "star_tdma", "mesh_csma", "pair_braid"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# name -> unit. The harness computes them; this table is the contract
# (BENCHMARK.json lists the same names and units; test_compare.py checks).
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "wall_s": "s",
    "events_per_s_mt": "1/s",
    "peak_rss_mb": "MB",
    "paper_gain_err_pct": "%",
}
PER_LAYER = {
    "util.rng.stream_ns": "ns",
    "net.topology.build_s": "s",
    "net.sim.ctor_s": "s",
    "net.sim.run_s": "s",
    "net.queue.op_ns": "ns",
    "net.queue.share": "1",
    "net.queue.scan_steps_per_event": "1",
    "net.queue.retunes": "count",
    "net.queue.grows": "count",
    "net.queue.peak_depth": "count",
    "net.medium.mean_active": "count",
    "net.medium.query_ns": "ns",
    "net.medium.share": "1",
    "net.mac.attempts_per_delivered": "1",
    "net.mac.access_fail_ratio": "1",
    "net.arq.drop_ratio": "1",
    "net.relay.forwarded_per_generated": "1",
    "net.tdma.rounds": "count",
    "net.tdma.slots_reclaimed": "count",
    "hal.channel.ber_ns": "ns",
    "hal.channel.share": "1",
    "energy.ledger.charge_ns": "ns",
    "energy.ledger.posts_per_event": "1",
    "energy.ledger.share": "1",
    "mac.channel.transmit_ns": "ns",
    "mac.channel.share": "1",
    "mac.crc16_ns": "ns",
    "mac.arq.retx_ratio": "1",
    "core.braid.replans": "count",
    "core.braid.fallbacks": "count",
    "core.regimes.build_s": "s",
    "core.offload.plan_ns": "ns",
    "core.lifetime.point_ns": "ns",
    "sim.sweep.parallel_efficiency": "1",
    "sim.sweep.imbalance": "1",
    "sim.export_s": "s",
    "obs.trace_overhead_pct": "%",
    "result.delivery_ratio": "1",
    "result.bits_per_joule": "bit/J",
}
# Deterministic modelled results, printed on every run beside the
# bounded metrics (they are pinned exactly by the digest gate).
RESULTS = {"delivery_ratio": "1", "bits_per_joule": "bit/J"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no braidio sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    cmd = ["cmake", "--build", str(out), "--target", "perfbench_harness",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench_harness"


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_harness(harness, workload, seed, seconds, trace, trace_out=None):
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", git_commit()]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(120, 3 * seconds + 60))
    except subprocess.TimeoutExpired:
        fail(f"harness timed out: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"harness exited {done.returncode}: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def check_expected(doc, workload, seed):
    """Digest checks against expected.json -> (extra attempted, extra
    failed, failure messages). The fluid check is one more attempt; a
    replica digest mismatch fails evaluations the harness already
    counted as attempted."""
    if not EXPECTED.is_file():
        return 1, 1, [f"{EXPECTED.name} missing; run --record-expected"]
    expected = json.loads(EXPECTED.read_text())
    entry = expected["workloads"].get(workload)
    manifest = doc["manifest"]
    if entry is None or entry["config_hash"] != manifest["config_hash"]:
        return 1, 1, [f"{workload}: config hash {manifest['config_hash']} has "
                      "no recorded digests; run --record-expected"]
    attempted, failed, messages = 1, 0, []
    if doc["fluid_digest"] != expected["fluid_digest"]:
        failed += 1
        messages.append("fluid Fig. 15 column-1 gains changed: "
                        f"{doc['fluid_digest']} != {expected['fluid_digest']}")
    default = entry["seeds"][str(expected["default_seed"])]
    if doc["golden_replica_digest"] != default[0]:
        failed += 1
        messages.append("default-seed replica 0 changed: "
                        f"{doc['golden_replica_digest']} != {default[0]}")
    recorded = entry["seeds"].get(str(seed))
    if recorded is not None:
        for i, (got, want) in enumerate(zip(doc["replica_digests"], recorded)):
            if got != want:
                # Every pass evaluated replica i with this digest.
                failed += doc["passes"]
                messages.append(f"seed {seed} replica {i} changed: "
                                f"{got} != {want}")
    return attempted, failed, messages


def fmt(value):
    return f"{value:.6g}"


def record_expected(harness):
    out = {"schema": "perfbench-expected/v1", "default_seed": DEFAULT_SEED,
           "held_out_seed": HELD_OUT_SEED, "fluid_digest": None,
           "workloads": {}}
    for workload in WORKLOADS:
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            doc = run_harness(harness, workload, seed, 0, False)
            if doc["failed"]:
                fail(f"{workload} seed {seed} failed its own checks: "
                     f"{doc['failures']}")
            seeds[str(seed)] = doc["replica_digests"]
            out["fluid_digest"] = doc["fluid_digest"]
        out["workloads"][workload] = {
            "config": doc["manifest"]["config"],
            "config_hash": doc["manifest"]["config_hash"],
            "seeds": seeds,
        }
        print(f"recorded {workload}")
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {EXPECTED}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    harness = build()
    if args.record_expected:
        record_expected(harness)
        return 0
    if args.workload is None:
        fail("--workload is required")

    trace_out = None
    if args.trace:
        trace_out = build_dir().parent / "perfbench-traces" / (
            f"{args.workload}-seed{args.seed}.trace.json")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    doc = run_harness(harness, args.workload, args.seed, args.seconds,
                      args.trace, trace_out)
    extra_attempted, extra_failed, messages = check_expected(
        doc, args.workload, args.seed)
    attempted = doc["attempted"] + extra_attempted
    failed = min(doc["failed"] + extra_failed, attempted)
    messages = doc["failures"] + messages

    source, names = ("layers", PER_LAYER) if args.trace else ("e2e", END_TO_END)
    metrics = {}
    for name, unit in names.items():
        value = doc[source].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"harness reported no finite {name}: {value}")
        metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0

    manifest = doc["manifest"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"samples: {doc['serial_replica_samples']} 1-thread replicas, "
          f"{doc['mt_pass_samples']} {manifest['threads']}-thread passes")
    for name, m in metrics.items():
        print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
    for name, unit in RESULTS.items():
        print(f"  {name:34s} {fmt(doc['results'][name]):>14s} {unit}"
              "  (deterministic)")
    print(f"  {'error_ratio':34s} {fmt(failed / max(attempted, 1)):>14s} 1"
          f"  ({failed} of {attempted} failed)")
    if args.workload != "pair_braid" and not args.trace:
        print("  paper_gain_err_pct checks the fluid Fig. 15 model; this "
              "network workload has no paper reference (unvalidated)")
    if args.trace:
        print("self time per span [s]:")
        for name, t in sorted(doc["self_times"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:34s} {t['self_s']:12.6f} of {t['total_s']:12.6f}"
                  f"  x{t['count']}")
        print(f"trace: {trace_out}")
    for message in messages:
        print(f"FAILED: {message}")
    print(f"elapsed {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
