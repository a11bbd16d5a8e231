#!/usr/bin/env python3
"""Schema check for bench_suite's --json emissions.

bench_suite runs the scenario suite and every grid family in smoke mode
under ctest (label: suite), and each artifact is validated here: the
file must parse, declare that bench_suite wrote it, and carry the
required keys at the top level and in every scenario row. This pins the
emission contract that bench_compare.py and any downstream dashboards
consume — a renamed or dropped key fails CI instead of silently
producing empty plots.

Usage: check_bench_json.py FILE [FILE...]
"""

import json
import sys

BENCH = "bench_suite"
TOP_KEYS = ["bench", "suite", "smoke", "scale"]
ROWS_KEY = "scenarios"
ROW_KEYS = [
    "name", "ops_bound", "tps", "elapsed_s", "total_ops",
    "ops_update", "ops_insert", "ops_delete", "ops_query",
    "ops_knn", "mean_us", "p50_us", "p99_us", "io_reads",
    "io_writes", "hit_rate", "dgl_acquisitions", "dgl_waits",
    "dgl_aborts", "compound_smos", "descent_restarts",
    "coupled_queries",
    "optimistic_queries", "optimistic_fallbacks", "pruned_queries",
    "batched_updates", "batch_pages",
    "batch_fallbacks", "ingest_batches", "ingest_batched_ops",
    "ingest_max_batch", "wal_records", "wal_fsyncs",
    "wal_appended_bytes", "wal_checkpoints", "final_objects",
    "expected_objects",
    "checks_failed", "check_failures",
]


def check_file(path):
    """Returns (errors, row count)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: not loadable JSON: {e}"], 0

    if doc.get("bench") != BENCH:
        return [f"{path}: 'bench' key is {doc.get('bench')!r}, "
                f"want {BENCH!r}"], 0

    errors = [f"{path}: missing top-level key '{key}'"
              for key in TOP_KEYS if key not in doc]
    rows = doc.get(ROWS_KEY)
    if not isinstance(rows, list) or not rows:
        errors.append(f"{path}: '{ROWS_KEY}' must be a non-empty list")
        return errors, 0
    for i, row in enumerate(rows):
        for key in ROW_KEYS:
            if key not in row:
                errors.append(f"{path}: {ROWS_KEY}[{i}] missing '{key}'")
    return errors, len(rows)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    all_errors = []
    for path in sys.argv[1:]:
        errors, n_rows = check_file(path)
        all_errors.extend(errors)
        if not errors:
            print(f"{path}: ok ({BENCH}, {n_rows} rows)")
    for e in all_errors:
        print(e, file=sys.stderr)
    sys.exit(1 if all_errors else 0)


if __name__ == "__main__":
    main()
