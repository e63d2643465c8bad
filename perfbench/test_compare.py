#!/usr/bin/env python3
"""Self-test of the benchmark's own comparison and metric tables.

    python3 perfbench/test_compare.py

Feeds compare.py two synthetic result sets, one identical to the base and
one with events_per_s 1.5x lower on one workload, and checks that the
first passes and the second is flagged on exactly that pair. Also checks
that run.py's metric tables agree with BENCHMARK.json.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

BASE = {
    "setup_s": 0.021,
    "events_per_s": 7.0e5,
    "wall_s": 0.42,
    "events_per_s_mt": 2.3e6,
    "peak_rss_mb": 149.0,
    "paper_gain_err_pct": 9.12,
}


def synthetic_set(slow_workload=None, factor=1.0, seeds=10):
    """Per-seed result records with a +-1% deterministic jitter."""
    records = []
    for workload in run.WORKLOADS:
        for seed in range(seeds):
            jitter = 1.0 + 0.01 * ((seed * 7) % 5 - 2) / 2
            metrics = {}
            for name, value in BASE.items():
                value *= jitter
                if workload == slow_workload and name == "events_per_s":
                    value /= factor
                metrics[name] = {"value": value, "unit": run.END_TO_END[name]}
            records.append({"workload": workload, "seed": seed,
                            "result": {"correct": True, "attempted": 1,
                                       "failed": 0, "metrics": metrics}})
    return records


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class CompareSelfTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.bounds = compare.load_bounds()

    def tearDown(self):
        self.tmp.cleanup()

    def rows(self, records):
        base, new = self.dir / "base.jsonl", self.dir / "new.jsonl"
        write(base, synthetic_set())
        write(new, records)
        return compare.compare(compare.load_runs(base),
                               compare.load_runs(new), self.bounds)

    def test_identical_sets_pass(self):
        rows = self.rows(synthetic_set())
        self.assertEqual(len(rows), len(run.WORKLOADS) * len(BASE))
        self.assertFalse([r for r in rows if r[-1]])

    def test_events_per_s_one_and_a_half_times_lower_is_flagged(self):
        rows = self.rows(synthetic_set("mesh_csma", 1.5))
        flagged = [(r[0], r[1]) for r in rows if r[-1]]
        self.assertEqual(flagged, [("mesh_csma", "events_per_s")])
        share = next(r[4] for r in rows if r[0] == "mesh_csma"
                     and r[1] == "events_per_s")
        self.assertAlmostEqual(share, 1.0 / 3.0, places=9)

    def test_cli_exit_codes(self):
        base, same, slow = (self.dir / n for n in ("b", "s", "w"))
        write(base, synthetic_set())
        write(same, synthetic_set())
        write(slow, synthetic_set("star_tdma", 1.5))
        tool = [sys.executable, str(HERE / "compare.py"), "compare"]
        ok = subprocess.run(tool + [str(base), str(same)], capture_output=True)
        bad = subprocess.run(tool + [str(base), str(slow)], capture_output=True,
                             text=True)
        self.assertEqual(ok.returncode, 0)
        self.assertEqual(bad.returncode, 1)
        self.assertIn("REGRESSED", bad.stdout)

    def test_direction_of_worse(self):
        self.assertGreater(compare.worse_by(100.0, 80.0, "higher"), 0)
        self.assertLess(compare.worse_by(100.0, 80.0, "lower"), 0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles(n=4) -> 2.75, 5.5, 8.25
        self.assertAlmostEqual(compare.spread(values), 5.5 / 5.5)


class TablesMatchBenchmarkJson(unittest.TestCase):
    def test_names_units_and_bounds(self):
        spec = json.loads(compare.BENCHMARK.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
