// Declarative scenario suite (ROADMAP "full paper scale + a declarative
// scenario matrix with a recorded perf trajectory"): one spec file per
// scenario under bench/suite/ declares the whole deployment — workload,
// scale, strategy, latch mode, backend, WAL, ingest config,
// client threads, op mix (update/insert/delete/query/kNN with optional
// hotspot or flash-crowd skew), run bound (op count or wall-clock
// duration), and the invariant checks the run must pass. bench_suite
// loads a directory of specs, runs each through RunScenario, and emits
// one canonical machine-readable BENCH_suite.json that
// scripts/bench_compare.py gates CI against.
//
// Spec format: `key: value` lines, `#` comments, unknown keys rejected
// (a typo must fail loudly, not silently run the default scenario).
// Any key but `name` may list values, `key: a | b | c`: the file then
// expands into the cross product of its listed keys (ParseScenarioGrid),
// which is how bench/grids/ declares whole sweeps. Example — see
// bench/README.md "Declarative scenario suite" for the full key table:
//
//   name: hotspot_gbu_coupled
//   strategy: GBU
//   latch_mode: coupled
//   backend: mem
//   objects: 50000
//   threads: 8
//   ops_per_thread: 2000
//   update_pct: 60
//   skew: hotspot
//   hot_fraction: 0.05
//   hot_prob: 0.9
//
// Determinism contract: with duration_s == 0 (op-bound) every op-kind
// count is a pure function of the seed — op selection, skewed picks and
// churn decisions draw from per-client Rngs in a timing-independent
// order — so the regression gate compares those counts exactly across
// machines while perf metrics get ratio tolerances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "ingest/ingest_pool.h"
#include "workload/churn.h"
#include "workload/skew.h"

namespace burtree {

struct ScenarioSpec {
  std::string name;

  /// Deployment: strategy/latch/backend/ingest/etc., plus the
  /// GSTD workload knobs (objects, distribution, max_move, seed).
  ExperimentConfig base;

  /// Client threads driving the mixed-op loop.
  uint32_t threads = 8;
  /// Op-bound run length (per client). Ignored when duration_s > 0.
  uint64_t ops_per_thread = 1000;
  /// Time-bound run length (the long-running stability family); 0 = op
  /// bound. Time-bound runs have nondeterministic op counts, so the
  /// compare tool only ratio-gates them (ScenarioResult::ops_bound).
  double duration_s = 0.0;

  /// Op mix in percent; the remainder to 100 is window queries.
  double update_pct = 60.0;
  double insert_pct = 0.0;
  double delete_pct = 0.0;
  double knn_pct = 0.0;

  /// Window-query dimension bound and kNN k.
  double query_max_dim = 0.01;
  size_t knn_k = 10;

  /// Which object an update touches (hotspot / flash-crowd skew).
  SkewOptions skew;

  /// Simulated per-I/O latency (see ConcurrencyOptions).
  uint64_t io_latency_us = 0;
  bool io_latency_in_op = false;

  // ---- Expected-invariant checks (evaluated by RunScenario) ----
  /// Structural tree validation after the run (min-fill not enforced:
  /// concurrent escalations may legally leave sparse pages).
  bool expect_validate = true;
  /// Final population == objects + inserts - deletes, counted by a
  /// full-space window query on the quiesced tree.
  bool expect_conservation = true;
  /// Floor on the measured throughput (0 disables; keep conservative —
  /// this is a same-machine sanity floor, not the regression gate).
  double expect_min_tps = 0.0;
};

/// Parses a spec from text. `name` defaults from `default_name` (the
/// file stem) when the spec does not set it.
StatusOr<ScenarioSpec> ParseScenario(const std::string& text,
                                     const std::string& default_name);

/// Expands list values (`key: a | b`, `|`-separated because `ingest:`
/// values contain commas) into the cross product of the listed keys,
/// first listed key slowest, and parses each cell with ParseScenario.
/// A cell is named `<name>/<key>=<value>...` over every listed key, in
/// file order. A spec without lists yields exactly one, unrenamed, spec.
/// A list on `name`, or an empty or repeated element, fails with its
/// line number.
StatusOr<std::vector<ScenarioSpec>> ParseScenarioGrid(
    const std::string& text, const std::string& default_name);

/// Loads one spec file and expands it (ParseScenarioGrid).
StatusOr<std::vector<ScenarioSpec>> LoadScenarioFile(
    const std::string& path);

/// Loads every "*.scn" file in `dir`, sorted by filename, each expanded
/// into its cells. Scenario names must be unique across the directory.
StatusOr<std::vector<ScenarioSpec>> LoadScenarioDir(const std::string& dir);

struct ScenarioResult {
  std::string name;

  double tps = 0.0;
  double elapsed_s = 0.0;
  uint64_t total_ops = 0;
  uint64_t ops_update = 0;
  uint64_t ops_insert = 0;
  uint64_t ops_delete = 0;
  uint64_t ops_query = 0;
  uint64_t ops_knn = 0;
  /// True when the run was op-bound (deterministic op counts).
  bool ops_bound = true;

  LatencySummary latency;
  LockStats lock_stats;
  LatchModeStats latch_stats;
  IngestStats ingest_stats;
  WalStats wal_stats;  ///< zeros without a WAL
  /// Buffer-pool hit rate of the tree pool over the whole run.
  double hit_rate = 0.0;
  /// Disk accesses (tree + hash files combined) across the client
  /// phase — the paper's headline metric, delta over the built index.
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;

  /// Post-run full-space population count vs the churn ledger.
  uint64_t final_objects = 0;
  uint64_t expected_objects = 0;

  /// Empty = every expected-invariant check passed. Each entry is one
  /// human-readable failure; the JSON row carries the count + strings.
  std::vector<std::string> check_failures;
};

/// Runs one scenario end to end: build the index per the spec, drive
/// `threads` clients through the mixed-op loop (through the ingest pool
/// when the spec configures one), quiesce, then evaluate the expected
/// invariants. A non-OK status means the run itself broke (an op
/// returned a hard error); check failures land in `check_failures`.
StatusOr<ScenarioResult> RunScenario(const ScenarioSpec& spec);

}  // namespace burtree
