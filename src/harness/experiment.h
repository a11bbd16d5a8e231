// Experiment runner reproducing the paper's §5 pipeline: build the index
// by insertion (GSTD initial distribution), replay U updates, then run Q
// window queries on the resulting tree, reporting average disk I/O per
// update / query and CPU seconds — the exact series of Figures 5-7. The
// concurrent Figure-8 runs go through RunScenario (harness/scenario.h),
// which reuses MakeFixture and BuildIndex.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cc/concurrent_index.h"
#include "common/metrics.h"
#include "update/gbu.h"
#include "update/index_system.h"
#include "update/lbu.h"
#include "update/query_executor.h"
#include "update/top_down.h"
#include "workload/generator.h"

namespace burtree {

enum class StrategyKind { kTopDown, kLocalizedBottomUp, kGeneralizedBottomUp };

const char* StrategyName(StrategyKind kind);

struct ExperimentConfig {
  WorkloadOptions workload;
  uint64_t num_updates = 100000;
  uint64_t num_queries = 2000;

  StrategyKind strategy = StrategyKind::kGeneralizedBottomUp;
  GbuOptions gbu;
  LbuOptions lbu;

  /// Buffer pool sized as a fraction of the tree's pages after the build
  /// (paper default 1%).
  double buffer_fraction = 0.01;
  /// LRU shard count for the tree and hash-index buffer pools (1 = the
  /// classic single-latch pool; >1 only matters under concurrency).
  size_t buffer_shards = 1;
  /// Storage backend for both page files (`--backend mem|file[:dir]` on
  /// the benches): mem is the paper's counted in-memory disk, file does
  /// real pread/pwrite I/O. See docs/STORAGE.md for how to choose.
  StorageOptions storage;
  /// Tree-latch mode for the concurrent (Figure-8) path: kGlobal is one
  /// tree-wide latch, kCoupled runs leaf-local updates under page
  /// latches and escalations as top-down latch-coupled descents (no
  /// tree-wide latch at all). Ignored by the single-threaded pipeline;
  /// RunScenario copies it into the ConcurrencyOptions it builds the
  /// ConcurrentIndex with.
  LatchMode latch_mode = LatchMode::kGlobal;
  ReadMode read_mode = ReadMode::kOptimistic;  ///< unused; see ReadMode
  /// Batched ingestion front-end (`ingest: workers=N,batch=K` in a
  /// scenario spec): workers > 0 makes RunScenario route client updates
  /// and inserts through an IngestPool over per-shard MPSC queues —
  /// clients become submitters blocking on UpdateHandles while the
  /// worker pool group-executes batches — instead of the
  /// thread-per-client per-op calls. Ignored by the single-threaded
  /// pipeline.
  IngestOptions ingest;
  size_t page_size = 1024;
  SplitAlgorithm split = SplitAlgorithm::kQuadratic;
  /// R*-style forced re-insertion on overflow (see TreeOptions).
  bool forced_reinsert = false;

  /// Build with STR bulk loading instead of one-by-one insertion
  /// (extension; default matches the paper's insertion build).
  bool bulk_build = false;

  /// Validate tree + summary integrity after the run (tests set this;
  /// benches skip it to keep I/O counters clean).
  bool validate_after = false;
};

struct ExperimentResult {
  std::string strategy;
  uint64_t num_updates = 0;
  uint64_t num_queries = 0;

  double avg_update_io = 0.0;  ///< disk accesses / update (tree + hash)
  double avg_query_io = 0.0;   ///< disk accesses / query
  double update_cpu_s = 0.0;   ///< wall time of the update phase
  double query_cpu_s = 0.0;    ///< wall time of the query phase

  UpdatePathCounts paths;
  uint64_t query_matches = 0;
  uint32_t tree_height = 0;
  uint64_t tree_nodes = 0;
  RTreeStats tree_stats;
};

/// A fully wired system + strategy + executor, reusable across phases.
struct StrategyFixture {
  std::unique_ptr<IndexSystem> system;
  std::unique_ptr<UpdateStrategy> strategy;
  std::unique_ptr<QueryExecutor> executor;
};

/// Builds the IndexSystem appropriate for `kind` (TD: bare tree; LBU:
/// parent pointers + hash index; GBU: hash index + summary structure).
StrategyFixture MakeFixture(const ExperimentConfig& config);

/// Loads the initial objects (insertion build unless bulk_build), then
/// sizes the buffer pool per buffer_fraction and flushes, leaving the
/// fixture ready for measurement.
Status BuildIndex(const ExperimentConfig& config,
                  const WorkloadGenerator& workload, StrategyFixture* fx);

/// Full single-threaded pipeline: build -> updates -> queries.
StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config);

}  // namespace burtree
