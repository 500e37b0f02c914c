"""Determinism of the benchmark's modelled metrics.

Two traced runs with one seed must give bit-identical deterministic
metrics (modelled I/O, visited and survivor counts, leaf counts, answer
quality); a run with another seed must see other inputs.

    python3 -m unittest perfbench/tests/test_determinism.py

Run it from the repository root. It runs every workload three times with
--seconds 1 and takes a few minutes.
"""
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RESULTS = (BUILD if BUILD.is_absolute() else ROOT / BUILD) / "results"

DETERMINISTIC = {
    "record": {
        "bulk": ["build_io_s", "build_io_ctree_s", "build_io_ctreefull_s", "storage_bytes_per_raw_byte"],
        "query": ["exact_io_ms", "approx_ed_ratio", "visited_records_per_q"],
        "update": ["update_io_s", "exact_io_ms", "leaf_count", "storage_bytes_per_raw_byte"],
    },
    "per_layer": [
        "storage.build_random_ops", "storage.build_seq_blocks", "storage.build_blocks_written",
        "storage.exact_random_ops_per_q", "storage.exact_seq_blocks_per_q",
        "storage.approx_blocks_per_q", "storage.insert_blocks_per_series",
        "core.visited_records_per_q", "core.sims_survivor_frac",
        "core.leaf_count", "core.avg_leaf_fill",
    ],
}


def run(workload, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    return record


def deterministic(workload, record):
    picked = {k: record["record"][k]["value"] for k in DETERMINISTIC["record"][workload]}
    picked.update({k: record["per_layer"][k]["value"] for k in DETERMINISTIC["per_layer"]})
    return picked


class DeterminismTest(unittest.TestCase):
    def check(self, workload):
        first, second, other = run(workload, 1), run(workload, 1), run(workload, 2)
        self.assertEqual(deterministic(workload, first), deterministic(workload, second))
        self.assertEqual(first["info"]["inputs_sha256"], second["info"]["inputs_sha256"])
        self.assertNotEqual(first["info"]["inputs_sha256"], other["info"]["inputs_sha256"])

    def test_bulk(self):
        self.check("bulk")

    def test_query(self):
        self.check("query")

    def test_update(self):
        self.check("update")


if __name__ == "__main__":
    unittest.main()
