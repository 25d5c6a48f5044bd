#!/usr/bin/env python3
"""The benchmark's own tests: fixed op sequences give identical counts.

Run from the root of a checkout (it builds the benchmark first):
  python3 lbrbench/test_determinism.py

Every run here uses --ops (a fixed op count) at a small --scale, so counts
read from the layers' totals must repeat exactly for a repeated seed, and
the per-op department draw of lubm_selective must follow the seed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.05"
OPS = "24"
BINARY = None


def bench(workload, seed, trace=0):
    """Runs the benchmark binary; returns (context, result)."""
    workdir = os.path.join(run.build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    p = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), "--ops", OPS,
                        "--scale", SCALE, "--workdir", workdir],
                       capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise AssertionError("%s seed %d failed:\n%s" % (workload, seed, p.stderr))
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


class DeterminismTest(unittest.TestCase):
    def test_single_client_counts_repeat(self):
        for workload in ("lubm_lowsel", "dbpedia_budget"):
            (a, ra), (b, rb) = bench(workload, 7), bench(workload, 7)
            self.assertTrue(ra["correct"] and rb["correct"])
            self.assertEqual(ra["attempted"], int(OPS))
            for key in ("rows", "materializations", "spills", "tp_cache_hits",
                        "tp_cache_misses", "plan_cache_hits", "op_sequence_hash"):
                self.assertEqual(a["counts"][key], b["counts"][key], (workload, key))
            self.assertGreater(a["counts"]["rows"], 0, workload)

    def test_budgeted_snapshot_spills(self):
        ctx, _ = bench("dbpedia_budget", 7)
        self.assertGreater(ctx["counts"]["spills"], 0)
        self.assertGreater(ctx["counts"]["materializations"], 0)

    def test_seed_drives_selective_sequence(self):
        a, _ = bench("lubm_selective", 7)
        b, _ = bench("lubm_selective", 7)
        c, _ = bench("lubm_selective", 8)
        self.assertEqual(a["counts"]["op_sequence_hash"], b["counts"]["op_sequence_hash"])
        self.assertEqual(a["counts"]["rows"], b["counts"]["rows"])
        self.assertNotEqual(a["counts"]["op_sequence_hash"], c["counts"]["op_sequence_hash"])

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench("lubm_selective", 3, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(got, want, section)
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit("build failed")
    unittest.main()
