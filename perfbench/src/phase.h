// Set-up and timed phase of one benchmark run: builds the system a workload
// runs on, drives the clients through a fixed number of ops, snapshots every
// layer's public stats around it, and checks the index afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clients.h"
#include "harness/experiment.h"
#include "spans.h"

namespace perfbench {

/// Warm-up ops every client runs in each set-up, before the timed phase.
constexpr uint64_t kWarmOpsPerClient = 5000;

/// Rounds of a traced phase: untraced and traced in turn, untraced first
/// and last, so every traced round sits between two untraced ones.
constexpr int kTraceRounds = 41;

/// What sizes a run. The defaults are the benchmark's; the benchmark's own
/// tests shrink them.
struct RunConfig {
  uint64_t seed = 1;
  uint64_t objects = 200000;  ///< 1/5 of the paper's 1M
  uint32_t clients = 0;  ///< 0 = the workload's own count
  /// Where the WAL puts its log file.
  std::string scratch_dir = ".bench_tmp";
};

struct SetupTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;
};

/// One set-up system and its clients. Clients keep a reference to `env`,
/// so a Deployment never moves.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Declaration order is destruction order reversed: clients stop first,
  // then the ingest workers, the index, and the system they all use.
  std::unique_ptr<burtree::WorkloadGenerator> positions;
  burtree::StrategyFixture fx;
  std::unique_ptr<TracingStrategy> tracing_strategy;
  std::unique_ptr<burtree::ConcurrentIndex> index;
  std::unique_ptr<burtree::IngestPool> ingest;
  ClientEnv env;
  std::vector<std::unique_ptr<Client>> clients;
  SetupTimes times;
  uint64_t tree_pages = 0;
  uint64_t buffer_pages = 0;
  uint32_t height = 0;

  burtree::IndexSystem& system() { return *fx.system; }
  burtree::UpdatePathCounts path_counts() const {
    return tracing_strategy ? tracing_strategy->CombinedPathCounts()
                            : fx.strategy->path_counts();
  }
};

/// Builds the system for `spec`, starts its clients (each with its buffer in
/// `samples`) and warms it up. `start_ns` is when this set-up began. With
/// `traceable`, ConcurrentIndex gets a TracingStrategy around GBU.
burtree::StatusOr<std::unique_ptr<Deployment>> Setup(
    const WorkloadSpec& spec, const RunConfig& run, bool traceable,
    std::vector<std::vector<LatencySample>>* samples, int64_t start_ns);

/// Snapshot of every layer's public stats.
struct Counters {
  burtree::IndexSystem::IoBreakdown io;
  burtree::BufferPoolStats pool;
  burtree::LockStats lock;
  burtree::LatchModeStats latch;
  burtree::LatchTableStats table;
  burtree::IngestStats ingest;
  burtree::WalStats wal;
  burtree::RTreeStats tree;
  burtree::UpdatePathCounts paths;
  uint64_t scoped_calls = 0;      ///< UpdateScoped calls while tracing
  uint64_t scoped_contended = 0;  ///< ... that bailed on contention
};

struct KindResult {
  KindTally tally;
  std::vector<uint64_t> latency_ns;
};

struct PhaseResult {
  int64_t start_ns = 0;
  double elapsed_s = 0.0;
  /// Every completed op of every client, in completion order.
  std::vector<LatencySample> samples;
  std::array<KindResult, kOpKinds> kinds;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  Counters before, timed_end, run_end;
  double durable_wait_ms = 0.0;
  double checkpoint_ms = 0.0;
  double flush_ms = 0.0;
  /// Traced phase: completed ops per second of each round, in order.
  std::vector<double> round_ops_per_s;
  /// Traced phase: IngestPool batched ops during the traced rounds.
  uint64_t traced_batched_ops = 0;
  /// Process peak RSS when the run end finished, before the benchmark's
  /// own analysis allocates anything.
  double peak_rss_mb = 0.0;
  std::vector<std::string> check_failures;
  uint64_t final_objects = 0;
  uint64_t expected_objects = 0;
  uint64_t live_pages = 0;  ///< tree + oid-index stores at run end
  uint64_t summary_bytes = 0;
  uint32_t final_height = 0;
};

/// Runs every client's next `ops` ops, then the run end (WAL durable,
/// checkpoint, flush) and the checks. Measures only this phase's ops; a
/// set-up may run several phases one after the other. With `traced`, the
/// clients run the ops in kTraceRounds rounds, alternately untraced and
/// traced, and the run end is traced.
PhaseResult TimedPhase(Deployment& d, const RunConfig& run, uint64_t ops,
                       bool traced);

}  // namespace perfbench
