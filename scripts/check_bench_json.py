#!/usr/bin/env python3
"""Schema check for the benches' --json emissions.

Every bench that can emit machine-readable JSON is run in smoke mode by
ctest (label: suite) and its artifact is validated here: the file must
parse, declare which bench wrote it, and carry the required keys at the
top level and in every row. This pins the emission contract that
bench_compare.py and any downstream dashboards consume — a renamed or
dropped key fails CI instead of silently producing empty plots.

Usage: check_bench_json.py FILE [FILE...]
The bench type is read from each file's "bench" key.
"""

import json
import sys

# bench name -> (top-level keys, rows key, per-row keys)
SCHEMAS = {
    "bench_suite": (
        ["bench", "suite", "smoke", "scale"],
        "scenarios",
        [
            "name", "ops_bound", "tps", "elapsed_s", "total_ops",
            "ops_update", "ops_insert", "ops_delete", "ops_query",
            "ops_knn", "mean_us", "p50_us", "p99_us", "io_reads",
            "io_writes", "hit_rate", "dgl_acquisitions", "dgl_waits",
            "dgl_aborts", "compound_smos", "descent_restarts",
            "coupled_queries",
            "optimistic_queries", "optimistic_fallbacks", "pruned_queries",
            "coupled_reinserts", "batched_updates", "batch_pages",
            "batch_fallbacks", "ingest_batches", "ingest_batched_ops",
            "ingest_max_batch", "wal_records", "wal_fsyncs",
            "wal_appended_bytes", "wal_checkpoints", "final_objects",
            "expected_objects",
            "checks_failed", "check_failures",
        ],
    ),
    "bench_wal_durability": (
        ["bench", "workload", "ops", "pages", "buffer_fraction",
         "threads", "shards", "group_commit_us"],
        "rows",
        ["config", "ops_per_sec", "hit_rate", "durable", "wal_records",
         "wal_delta_images", "wal_fsyncs", "wal_appended_bytes",
         "wal_checkpoints", "wal_max_group_bytes"],
    ),
    "bench_async_io": (
        ["bench", "pages", "page_size", "threads", "io_latency_us"],
        "rows",
        ["engine", "engine_ran", "queue_depth", "tps", "mean_us",
         "p50_us", "p99_us", "prefetched", "speedup_vs_sync"],
    ),
}


def check_file(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: not loadable JSON: {e}"]

    bench = doc.get("bench")
    if bench not in SCHEMAS:
        return [f"{path}: unknown or missing 'bench' key: {bench!r} "
                f"(known: {', '.join(sorted(SCHEMAS))})"]

    top_keys, rows_key, row_keys = SCHEMAS[bench]
    for key in top_keys:
        if key not in doc:
            errors.append(f"{path}: missing top-level key '{key}'")
    rows = doc.get(rows_key)
    if not isinstance(rows, list) or not rows:
        errors.append(f"{path}: '{rows_key}' must be a non-empty list")
        return errors
    for i, row in enumerate(rows):
        for key in row_keys:
            if key not in row:
                errors.append(f"{path}: {rows_key}[{i}] missing '{key}'")
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    all_errors = []
    for path in sys.argv[1:]:
        errors = check_file(path)
        all_errors.extend(errors)
        if not errors:
            with open(path) as f:
                doc = json.load(f)
            _, rows_key, _ = SCHEMAS[doc["bench"]]
            print(f"{path}: ok ({doc['bench']}, "
                  f"{len(doc[rows_key])} rows)")
    for e in all_errors:
        print(e, file=sys.stderr)
    sys.exit(1 if all_errors else 0)


if __name__ == "__main__":
    main()
