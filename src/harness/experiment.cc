#include "harness/experiment.h"

#include "common/metrics.h"

namespace burtree {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTopDown: return "TD";
    case StrategyKind::kLocalizedBottomUp: return "LBU";
    case StrategyKind::kGeneralizedBottomUp: return "GBU";
  }
  return "?";
}

StrategyFixture MakeFixture(const ExperimentConfig& config) {
  IndexSystemOptions opts;
  opts.tree.page_size = config.page_size;
  opts.tree.split = config.split;
  opts.tree.forced_reinsert = config.forced_reinsert;
  opts.buffer_shards = config.buffer_shards;
  opts.storage = config.storage;
  opts.hash.page_size = config.page_size;
  opts.hash.buffer_shards = config.buffer_shards;
  opts.hash.storage = config.storage;
  // The WAL (and a persistent file path) belongs to the tree store only:
  // the hash index is rebuildable from the tree, so its file stays a
  // scratch file and its pool never holds pages for durability.
  opts.hash.storage.file_path.clear();
  opts.hash.storage.wal = WalOptions{};

  switch (config.strategy) {
    case StrategyKind::kTopDown:
      // The paper's TD baseline carries no secondary structures at all.
      opts.enable_oid_index = false;
      opts.enable_summary = false;
      break;
    case StrategyKind::kLocalizedBottomUp:
      opts.tree.parent_pointers = true;  // Algorithm 1's requirement
      opts.enable_oid_index = true;
      opts.enable_summary = false;
      break;
    case StrategyKind::kGeneralizedBottomUp:
      opts.enable_oid_index = true;
      opts.enable_summary = true;
      break;
  }

  StrategyFixture fx;
  fx.system = std::make_unique<IndexSystem>(opts);
  switch (config.strategy) {
    case StrategyKind::kTopDown:
      fx.strategy = std::make_unique<TopDownStrategy>(fx.system.get());
      fx.executor = std::make_unique<QueryExecutor>(fx.system.get(),
                                                    /*use_summary=*/false);
      break;
    case StrategyKind::kLocalizedBottomUp:
      fx.strategy = std::make_unique<LocalizedBottomUpStrategy>(
          fx.system.get(), config.lbu);
      fx.executor = std::make_unique<QueryExecutor>(fx.system.get(),
                                                    /*use_summary=*/false);
      break;
    case StrategyKind::kGeneralizedBottomUp:
      fx.strategy = std::make_unique<GeneralizedBottomUpStrategy>(
          fx.system.get(), config.gbu);
      fx.executor = std::make_unique<QueryExecutor>(
          fx.system.get(), config.gbu.summary_queries);
      break;
  }
  return fx;
}

Status BuildIndex(const ExperimentConfig& config,
                  const WorkloadGenerator& workload, StrategyFixture* fx) {
  IndexSystem& sys = *fx->system;
  const auto& positions = workload.initial_positions();
  if (config.bulk_build) {
    std::vector<LeafEntry> entries;
    entries.reserve(positions.size());
    for (ObjectId oid = 0; oid < positions.size(); ++oid) {
      entries.push_back(
          LeafEntry{IndexSystem::PointRect(positions[oid]), oid});
    }
    BURTREE_RETURN_IF_ERROR(sys.BulkLoad(std::move(entries)));
  } else {
    for (ObjectId oid = 0; oid < positions.size(); ++oid) {
      // One WAL record per build insert (inert scope without a WAL).
      WalOpScope wal_scope(sys.wal());
      BURTREE_RETURN_IF_ERROR(sys.Insert(oid, positions[oid]));
    }
  }
  // Size the buffer as a fraction of the database and start the measured
  // phases from a flushed state (paper: buffer = x% of database size).
  // With a WAL the flush doubles as a checkpoint, so the measured phases
  // start from a truncated log rather than replaying the whole build.
  sys.SetBufferFraction(config.buffer_fraction);
  if (sys.wal() != nullptr) {
    BURTREE_RETURN_IF_ERROR(sys.Checkpoint());
  }
  BURTREE_RETURN_IF_ERROR(sys.FlushAll());
  return Status::OK();
}

StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  WorkloadGenerator workload(config.workload);
  StrategyFixture fx = MakeFixture(config);
  BURTREE_RETURN_IF_ERROR(BuildIndex(config, workload, &fx));
  IndexSystem& sys = *fx.system;

  ExperimentResult res;
  res.strategy = StrategyName(config.strategy);
  res.num_updates = config.num_updates;
  res.num_queries = config.num_queries;

  // ---- Update phase ----
  auto io0 = sys.SnapshotIo();
  Stopwatch sw;
  for (uint64_t i = 0; i < config.num_updates; ++i) {
    const auto op = workload.NextUpdate();
    WalOpScope wal_scope(sys.wal());  // one record per logical update
    auto r = fx.strategy->Update(op.oid, op.from, op.to);
    BURTREE_RETURN_IF_ERROR(r.status());
  }
  BURTREE_RETURN_IF_ERROR(sys.FlushAll());
  res.update_cpu_s = sw.ElapsedSeconds();
  auto io1 = sys.SnapshotIo();
  const uint64_t update_io = (io1.tree - io0.tree).total_io() +
                             (io1.hash - io0.hash).total_io();
  res.avg_update_io = config.num_updates > 0
                          ? static_cast<double>(update_io) /
                                static_cast<double>(config.num_updates)
                          : 0.0;

  // ---- Query phase (after all updates, as in the paper) ----
  sw.Restart();
  for (uint64_t i = 0; i < config.num_queries; ++i) {
    const Rect window = workload.NextQueryWindow();
    auto matches = fx.executor->Query(window);
    BURTREE_RETURN_IF_ERROR(matches.status());
    res.query_matches += matches.value();
  }
  res.query_cpu_s = sw.ElapsedSeconds();
  auto io2 = sys.SnapshotIo();
  const uint64_t query_io = (io2.tree - io1.tree).total_io() +
                            (io2.hash - io1.hash).total_io();
  res.avg_query_io = config.num_queries > 0
                         ? static_cast<double>(query_io) /
                               static_cast<double>(config.num_queries)
                         : 0.0;

  res.paths = fx.strategy->path_counts();
  res.tree_height = sys.tree().height();
  res.tree_stats = sys.tree().stats();
  if (config.validate_after) {
    BURTREE_RETURN_IF_ERROR(sys.tree().Validate(!config.bulk_build));
  }
  res.tree_nodes = 0;  // filled only on demand (walks the tree)
  return res;
}

}  // namespace burtree
