#!/usr/bin/env python3
"""Checks of the benchmark itself, at toy size (well under a minute).

    python3 perfbench/test_perfbench.py

Builds the driver through run.py, then checks that the op stream is a pure
function of the seed and that the printed metrics are exactly the ones
BENCHMARK.json declares.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OUT = os.path.join(run.ROOT, ".bench_out", "test")
SCRATCH = os.path.join(run.ROOT, ".bench_tmp", "test")
TOY = ["--objects", "3000", "--clients", "1", "--out-dir", OUT,
       "--scratch-dir", SCRATCH]
# At toy size a write appends about 190 B to the log, so 520,000 ops cross
# the shipped 64 MB checkpoint threshold once (about 1.5 times over).
OPS = {"tracking": 4000, "read_mostly": 4000, "durable_ingest": 520000}


def drive(workload, seed, trace=0):
    """Runs one toy benchmark; returns (result line, result record)."""
    out = subprocess.run(
        [run.DRIVER, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace),
         "--ops-per-client", str(OPS[workload])] + TOY,
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError("driver failed:\n" + out.stdout + out.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" %
                        (workload, seed, trace))
    with open(path) as f:
        record = json.load(f)
    return result, record


def op_counts(record):
    return {kind: (v["attempted"], v["completed"])
            for kind, v in record["ops"].items() if isinstance(v, dict)}


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_repeats_counts_and_io(self):
        for workload in ("tracking", "read_mostly"):
            a, ra = drive(workload, 7)
            b, rb = drive(workload, 7)
            self.assertTrue(a["correct"] and b["correct"])
            self.assertEqual(op_counts(ra), op_counts(rb), workload)
            self.assertEqual(a["metrics"]["io_per_op"]["value"],
                             b["metrics"]["io_per_op"]["value"], workload)

    def test_same_seed_repeats_counts_and_checkpoints_with_ingest(self):
        # The two ingest workers batch ops in whatever order they arrive,
        # so page I/O may differ between runs; op kinds and the number of
        # WAL checkpoints crossed in the timed phase may not.
        _, ra = drive("durable_ingest", 7)
        _, rb = drive("durable_ingest", 7)
        self.assertEqual(op_counts(ra), op_counts(rb))
        self.assertGreater(ra["ops"]["wal_checkpoints"], 0)
        self.assertEqual(ra["ops"]["wal_checkpoints"],
                         rb["ops"]["wal_checkpoints"])
        self.assertGreater(ra["ops"]["delete"]["completed"], 0)

    def test_other_seed_changes_counts(self):
        _, ra = drive("tracking", 7)
        _, rb = drive("tracking", 8)
        self.assertNotEqual(op_counts(ra), op_counts(rb))


class MetricNames(unittest.TestCase):
    def test_outputs_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = drive("read_mostly", 3, trace=trace)
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in spec[key]])
            for name, m in result["metrics"].items():
                self.assertEqual(m["unit"], units[name], name)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    run.build()
    unittest.main()
