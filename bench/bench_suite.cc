// Declarative scenario-suite runner: loads every *.scn spec in --suite
// (default bench/suite next to the binary's source tree), expands the
// list-valued keys of each into its grid cells, runs every cell through
// RunScenario, prints one table row per cell, and — with --json — emits
// the canonical BENCH_suite.json that scripts/bench_compare.py gates CI
// against (see bench/suite/baselines/). bench/grids/ holds the sweeps:
// Figure 8, the latch/shard sweeps, batched ingestion and the
// recorded trajectory.
//
// Modes:
//   --suite DIR    run the spec files in DIR
//   --only SUB     filter scenarios whose name contains SUB
//   --list         print the loaded scenario names and exit
//   --smoke        CI sizing: cap objects/threads/ops/duration per spec
//                  (baselines for the gate are recorded with --smoke)
//
// BURTREE_SCALE multiplies every spec's objects (before --smoke caps).
//
// Exit codes: 0 = all scenarios ran and every expected-invariant check
// passed; 1 = a run broke (hard error); 3 = runs finished but at least
// one declared check failed (the JSON still carries every row, so the
// regression gate can show which).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/scenario.h"
#include "harness/table_printer.h"

using namespace burtree;

namespace {

// --smoke caps: deterministic shrink so the CI leg replays in seconds.
// The gate's baselines are recorded under the same caps, so op counts
// still compare exactly.
void ApplySmoke(ScenarioSpec* spec) {
  spec->base.workload.num_objects =
      std::min<uint64_t>(spec->base.workload.num_objects, 4000);
  spec->threads = std::min<uint32_t>(spec->threads, 4);
  spec->ops_per_thread = std::min<uint64_t>(spec->ops_per_thread, 250);
  if (spec->duration_s > 0) {
    spec->duration_s = std::min(spec->duration_s, 0.3);
  }
  // Perf floors are tuned for full-size runs; a smoke run on a loaded CI
  // box must not flake on them.
  spec->expect_min_tps = 0.0;
}

void EmitJson(const std::string& path, const std::string& suite,
              bool smoke, const std::vector<ScenarioResult>& results) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_suite\",\n"
               "  \"suite\": \"%s\",\n"
               "  \"smoke\": %s,\n"
               "  \"scale\": \"%g\",\n"
               "  \"scenarios\": [\n",
               suite.c_str(), smoke ? "true" : "false",
               CliArgs::ScaleFactor());
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::string failures;
    for (size_t j = 0; j < r.check_failures.size(); ++j) {
      if (j > 0) failures += ", ";
      failures += "\"";
      for (char c : r.check_failures[j]) {
        if (c == '"' || c == '\\') failures += '\\';
        failures += c;
      }
      failures += "\"";
    }
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"ops_bound\": %s,\n"
        "     \"tps\": %.1f, \"elapsed_s\": %.3f, \"total_ops\": %" PRIu64
        ",\n"
        "     \"ops_update\": %" PRIu64 ", \"ops_insert\": %" PRIu64
        ", \"ops_delete\": %" PRIu64 ", \"ops_query\": %" PRIu64
        ", \"ops_knn\": %" PRIu64 ",\n"
        "     \"mean_us\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f,\n"
        "     \"io_reads\": %" PRIu64 ", \"io_writes\": %" PRIu64
        ", \"hit_rate\": %.3f,\n"
        "     \"dgl_acquisitions\": %" PRIu64 ", \"dgl_waits\": %" PRIu64
        ", \"dgl_aborts\": %" PRIu64 ",\n"
        "     \"compound_smos\": %" PRIu64 ", \"descent_restarts\": %" PRIu64
        ",\n"
        "     \"coupled_queries\": %" PRIu64
        ", \"optimistic_queries\": %" PRIu64
        ", \"optimistic_fallbacks\": %" PRIu64
        ", \"pruned_queries\": %" PRIu64
        ", \"coupled_reinserts\": %" PRIu64 ",\n"
        "     \"batched_updates\": %" PRIu64 ", \"batch_pages\": %" PRIu64
        ", \"batch_fallbacks\": %" PRIu64 ",\n"
        "     \"ingest_batches\": %" PRIu64
        ", \"ingest_batched_ops\": %" PRIu64
        ", \"ingest_max_batch\": %" PRIu64 ",\n"
        "     \"wal_records\": %" PRIu64 ", \"wal_fsyncs\": %" PRIu64
        ", \"wal_appended_bytes\": %" PRIu64
        ", \"wal_checkpoints\": %" PRIu64 ",\n"
        "     \"final_objects\": %" PRIu64 ", \"expected_objects\": %" PRIu64
        ",\n"
        "     \"checks_failed\": %zu, \"check_failures\": [%s]}%s\n",
        r.name.c_str(), r.ops_bound ? "true" : "false", r.tps, r.elapsed_s,
        r.total_ops, r.ops_update, r.ops_insert, r.ops_delete, r.ops_query,
        r.ops_knn, r.latency.mean_us, r.latency.p50_us, r.latency.p99_us,
        r.io_reads, r.io_writes, r.hit_rate, r.lock_stats.acquisitions,
        r.lock_stats.waits, r.lock_stats.aborts,
        r.latch_stats.compound_smos, r.latch_stats.descent_restarts,
        r.latch_stats.coupled_queries, r.latch_stats.optimistic_queries,
        r.latch_stats.optimistic_fallbacks, r.latch_stats.pruned_queries,
        r.latch_stats.coupled_reinserts, r.latch_stats.batched_updates,
        r.latch_stats.batch_pages, r.latch_stats.batch_fallbacks,
        r.ingest_stats.batches, r.ingest_stats.batched_ops,
        r.ingest_stats.max_batch, r.wal_stats.records, r.wal_stats.fsyncs,
        r.wal_stats.appended_bytes, r.wal_stats.checkpoints,
        r.final_objects, r.expected_objects, r.check_failures.size(),
        failures.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const std::string suite_dir = cli.GetString("suite", "bench/suite");
  const std::string only = cli.GetString("only", "");
  const std::string json_path = cli.GetString("json", "");
  const bool smoke = cli.GetBool("smoke", false);
  const bool list = cli.GetBool("list", false);
  const bool csv = cli.GetBool("csv", false);
  cli.ExitIfHelpRequested(
      argv[0], "BURTREE_SCALE=<f> multiplies every spec's objects "
               "(paper scale: 20).");

  auto loaded = LoadScenarioDir(suite_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::vector<ScenarioSpec> specs = std::move(loaded).value();
  if (!only.empty()) {
    std::vector<ScenarioSpec> kept;
    for (auto& s : specs) {
      if (s.name.find(only) != std::string::npos) {
        kept.push_back(std::move(s));
      }
    }
    specs = std::move(kept);
    if (specs.empty()) {
      std::fprintf(stderr, "--only '%s' matched no scenario\n",
                   only.c_str());
      return 1;
    }
  }
  for (auto& s : specs) {
    s.base.workload.num_objects = std::max<uint64_t>(
        1, CliArgs::Scaled(s.base.workload.num_objects));
    if (smoke) ApplySmoke(&s);
  }
  if (list) {
    for (const auto& s : specs) std::printf("%s\n", s.name.c_str());
    return 0;
  }

  std::printf("=== Scenario suite: %s (%zu scenario%s%s) ===\n\n",
              suite_dir.c_str(), specs.size(),
              specs.size() == 1 ? "" : "s", smoke ? ", smoke" : "");
  TablePrinter table({"scenario", "ops", "tps", "p50(us)", "p99(us)",
                      "io r/w", "hit%", "checks"});
  std::vector<ScenarioResult> results;
  size_t failed_checks = 0;
  for (const ScenarioSpec& spec : specs) {
    auto run = RunScenario(spec);
    if (!run.ok()) {
      std::fprintf(stderr, "scenario %s failed: %s\n", spec.name.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    const ScenarioResult& r = results.emplace_back(std::move(run).value());
    failed_checks += r.check_failures.size();
    table.AddRow(
        {r.name, TablePrinter::FmtInt(r.total_ops),
         TablePrinter::Fmt(r.tps, 0), TablePrinter::Fmt(r.latency.p50_us, 1),
         TablePrinter::Fmt(r.latency.p99_us, 1),
         TablePrinter::FmtInt(r.io_reads) + "/" +
             TablePrinter::FmtInt(r.io_writes),
         TablePrinter::Fmt(100.0 * r.hit_rate, 1),
         r.check_failures.empty()
             ? "ok"
             : "FAIL(" + std::to_string(r.check_failures.size()) + ")"});
    for (const std::string& failure : r.check_failures) {
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", r.name.c_str(),
                   failure.c_str());
    }
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }

  if (!json_path.empty()) {
    EmitJson(json_path, suite_dir, smoke, results);
  }
  if (failed_checks > 0) {
    std::fprintf(stderr, "\n%zu expected-invariant check%s failed\n",
                 failed_checks, failed_checks == 1 ? "" : "s");
    return 3;
  }
  return 0;
}
