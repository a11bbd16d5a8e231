// Shared plumbing for the figure-reproduction benches: common CLI flags,
// the default (laptop-scale) workload, and figure-style table rendering.
//
// Scale note: the paper runs 1M objects / 1M updates / 1M queries; the
// defaults here are 1/20 of that so the full suite replays in minutes.
// Use --objects/--updates/--queries or BURTREE_SCALE=20 for paper scale.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"
#include "storage/async_io.h"
#include "storage/page_store.h"

namespace burtree::bench {

struct BenchArgs {
  uint64_t objects = 50000;
  uint64_t updates = 50000;
  uint64_t queries = 1000;
  double max_move = 0.03;
  double query_max_dim = 0.1;
  double buffer_fraction = 0.01;
  size_t buffer_shards = 1;
  StorageOptions storage;
  uint64_t seed = 20030901;
  Distribution distribution = Distribution::kUniform;
  bool csv = false;

  static constexpr const char* kScaleHelp =
      "BURTREE_SCALE=<f> multiplies objects/updates/queries "
      "(paper scale: 20).";

  static BenchArgs Parse(int argc, char** argv) {
    CliArgs cli(argc, argv);
    BenchArgs a = FromCli(cli);
    cli.ExitIfHelpRequested(argv[0], kScaleHelp);
    return a;
  }

  static BenchArgs FromCli(const CliArgs& cli) {
    BenchArgs a;
    a.objects = CliArgs::Scaled(
        static_cast<uint64_t>(cli.GetInt("objects", 50000)));
    a.updates = CliArgs::Scaled(
        static_cast<uint64_t>(cli.GetInt("updates", 50000)));
    a.queries = CliArgs::Scaled(
        static_cast<uint64_t>(cli.GetInt("queries", 1000)));
    a.max_move = cli.GetDouble("max-move", 0.03);
    a.query_max_dim = cli.GetDouble("query-dim", 0.1);
    a.buffer_fraction = cli.GetDouble("buffer", 0.01);
    a.buffer_shards = static_cast<size_t>(cli.GetInt("shards", 1));
    const std::string backend = cli.GetString("backend", "mem");
    if (!ParseStorageBackend(backend, &a.storage)) {
      std::fprintf(stderr,
                   "unknown --backend '%s' (want mem|file[:dir])\n",
                   backend.c_str());
      std::exit(2);
    }
    const std::string io = cli.GetString("io-engine", "sync");
    if (!ParseIoEngine(io, &a.storage.io_engine)) {
      std::fprintf(stderr,
                   "unknown --io-engine '%s' (want sync|pool|uring)\n",
                   io.c_str());
      std::exit(2);
    }
    a.storage.io_queue_depth =
        static_cast<size_t>(cli.GetInt("io-depth", 16));
    a.storage.fsync_on_flush = cli.GetBool("fsync", false);
    a.storage.direct_io = cli.GetBool("direct-io", false);
    a.storage.wal.enabled = cli.GetBool("wal", false);
    a.storage.wal.dir = cli.GetString("wal-dir", "");
    a.storage.wal.group_commit_us =
        static_cast<uint64_t>(cli.GetInt("group-commit-us", 200));
    a.storage.wal.checkpoint_log_bytes =
        static_cast<uint64_t>(cli.GetInt("wal-ckpt-mb", 64)) << 20;
    a.seed = static_cast<uint64_t>(cli.GetInt("seed", 20030901));
    a.csv = cli.GetBool("csv", false);
    ParseDistribution(cli.GetString("dist", "uniform"), &a.distribution);
    return a;
  }

  ExperimentConfig BaseConfig(StrategyKind kind) const {
    ExperimentConfig cfg;
    cfg.strategy = kind;
    cfg.workload.num_objects = objects;
    cfg.workload.max_move_distance = max_move;
    cfg.workload.query_max_dim = query_max_dim;
    cfg.workload.seed = seed;
    cfg.workload.distribution = distribution;
    cfg.num_updates = updates;
    cfg.num_queries = queries;
    cfg.buffer_fraction = buffer_fraction;
    cfg.buffer_shards = buffer_shards;
    cfg.storage = storage;
    return cfg;
  }
};

/// Parses a comma-separated count list ("1,4,8") for sweep axes.
/// Zero and non-numeric tokens are dropped: every sweep axis value is a
/// divisor or allocation count, so 0 is never meaningful.
inline std::vector<size_t> ParseCountList(const std::string& s) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) {
      uint64_t v = 0;
      if (ParseUint64(tok, &v) && v > 0) out.push_back(static_cast<size_t>(v));
    }
    pos = comma + 1;
  }
  return out;
}

inline void PrintHeader(const std::string& title, const BenchArgs& a) {
  std::printf("=== %s ===\n", title.c_str());
  std::string backend = StorageBackendName(a.storage.backend);
  if (!a.storage.file_dir.empty()) backend += ":" + a.storage.file_dir;
  if (a.storage.wal.enabled) backend += "+wal";
  if (a.storage.io_engine != IoEngineKind::kSync) {
    backend += std::string("+") + IoEngineName(a.storage.io_engine) +
               "@qd" + std::to_string(a.storage.io_queue_depth);
  }
  std::printf(
      "workload: %llu objects, %llu updates, %llu queries, max-move %.3f, "
      "buffer %.1f%% (%zu shard%s), backend %s, dist %s, seed %llu\n\n",
      static_cast<unsigned long long>(a.objects),
      static_cast<unsigned long long>(a.updates),
      static_cast<unsigned long long>(a.queries), a.max_move,
      a.buffer_fraction * 100.0, a.buffer_shards,
      a.buffer_shards == 1 ? "" : "s", backend.c_str(),
      DistributionName(a.distribution),
      static_cast<unsigned long long>(a.seed));
}

/// One swept x-value with results per strategy series.
struct SeriesRow {
  std::string x;
  std::vector<ExperimentResult> results;  // one per series label
};

/// Prints the four panels the paper's figures use: avg disk I/O and total
/// CPU seconds, for updates and queries.
inline void PrintFigurePanels(const std::string& x_label,
                              const std::vector<std::string>& series,
                              const std::vector<SeriesRow>& rows,
                              bool csv) {
  auto panel = [&](const std::string& what,
                   double (*get)(const ExperimentResult&)) {
    std::vector<std::string> headers{x_label};
    headers.insert(headers.end(), series.begin(), series.end());
    TablePrinter t(headers);
    for (const auto& row : rows) {
      std::vector<std::string> cells{row.x};
      for (const auto& r : row.results) {
        cells.push_back(TablePrinter::Fmt(get(r), 2));
      }
      t.AddRow(std::move(cells));
    }
    std::printf("-- %s --\n", what.c_str());
    if (csv) {
      t.PrintCsv(std::cout);
    } else {
      t.Print(std::cout);
    }
    std::printf("\n");
  };
  panel("Avg disk I/O per update",
        [](const ExperimentResult& r) { return r.avg_update_io; });
  panel("Avg disk I/O per query",
        [](const ExperimentResult& r) { return r.avg_query_io; });
  panel("Update CPU time (s)",
        [](const ExperimentResult& r) { return r.update_cpu_s; });
  panel("Query CPU time (s)",
        [](const ExperimentResult& r) { return r.query_cpu_s; });
}

inline ExperimentResult MustRun(const ExperimentConfig& cfg) {
  auto res = RunExperiment(cfg);
  if (!res.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(res).value();
}

}  // namespace burtree::bench
