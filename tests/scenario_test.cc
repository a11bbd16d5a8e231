// Scenario-suite subsystem: spec parsing (good specs, malformed specs
// that must fail loudly), directory loading, and RunScenario end to end
// — mixed update/insert/delete/query/kNN clients with the conservation
// ledger, the declared-check machinery, and the ingest-pool routing.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/scenario.h"

namespace burtree {
namespace {

TEST(ScenarioParseTest, ParsesEveryKey) {
  const std::string text = R"(
# comment line
name: full_spec       # trailing comment
strategy: GBU
latch_mode: coupled
read_mode: optimistic
backend: file
wal: true
wal_group_commit_us: 150
objects: 12345
distribution: gaussian
max_move: 0.05
seed: 99
buffer: 0.25
shards: 4
page_size: 2048
forced_reinsert: true
bulk_build: true
ingest: workers=2,batch=16
threads: 6
ops_per_thread: 77
update_pct: 40
insert_pct: 10
delete_pct: 10
knn_pct: 15
knn_k: 7
query_dim: 0.02
skew: flashcrowd
hot_fraction: 0.03
hot_prob: 0.95
flash_interval: 123
io_latency_us: 42
io_latency_in_op: true
expect_validate: false
expect_conservation: false
expect_min_tps: 100.5
)";
  auto spec = ParseScenario(text, "fallback");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScenarioSpec& s = spec.value();
  EXPECT_EQ(s.name, "full_spec");
  EXPECT_EQ(s.base.strategy, StrategyKind::kGeneralizedBottomUp);
  EXPECT_EQ(s.base.latch_mode, LatchMode::kCoupled);
  EXPECT_EQ(s.base.read_mode, ReadMode::kOptimistic);
  EXPECT_EQ(s.base.storage.backend, StorageBackend::kFile);
  EXPECT_TRUE(s.base.storage.wal.enabled);
  EXPECT_EQ(s.base.storage.wal.group_commit_us, 150u);
  EXPECT_EQ(s.base.workload.num_objects, 12345u);
  EXPECT_EQ(s.base.workload.distribution, Distribution::kGaussian);
  EXPECT_DOUBLE_EQ(s.base.workload.max_move_distance, 0.05);
  EXPECT_EQ(s.base.workload.seed, 99u);
  EXPECT_DOUBLE_EQ(s.base.buffer_fraction, 0.25);
  EXPECT_EQ(s.base.buffer_shards, 4u);
  EXPECT_EQ(s.base.page_size, 2048u);
  EXPECT_TRUE(s.base.forced_reinsert);
  EXPECT_TRUE(s.base.bulk_build);
  EXPECT_EQ(s.base.ingest.workers, 2u);
  EXPECT_EQ(s.threads, 6u);
  EXPECT_EQ(s.ops_per_thread, 77u);
  EXPECT_DOUBLE_EQ(s.update_pct, 40.0);
  EXPECT_DOUBLE_EQ(s.knn_pct, 15.0);
  EXPECT_EQ(s.knn_k, 7u);
  EXPECT_DOUBLE_EQ(s.query_max_dim, 0.02);
  EXPECT_EQ(s.skew.kind, SkewKind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(s.skew.hot_fraction, 0.03);
  EXPECT_EQ(s.skew.flash_interval, 123u);
  EXPECT_EQ(s.io_latency_us, 42u);
  EXPECT_TRUE(s.io_latency_in_op);
  EXPECT_FALSE(s.expect_validate);
  EXPECT_FALSE(s.expect_conservation);
  EXPECT_DOUBLE_EQ(s.expect_min_tps, 100.5);
}

TEST(ScenarioParseTest, NameDefaultsFromFileStem) {
  auto spec = ParseScenario("threads: 2\nops_per_thread: 5\n", "my_file");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().name, "my_file");
}

TEST(ScenarioParseTest, UnknownKeyFailsLoudly) {
  auto spec = ParseScenario("updte_pct: 60\n", "typo");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown key"), std::string::npos)
      << spec.status().ToString();
  EXPECT_NE(spec.status().message().find("line 1"), std::string::npos);
}

TEST(ScenarioParseTest, RejectsMalformedSpecs) {
  // Not key:value.
  EXPECT_FALSE(ParseScenario("just some words\n", "x").ok());
  // Empty value.
  EXPECT_FALSE(ParseScenario("strategy:\n", "x").ok());
  // Bad enum values.
  EXPECT_FALSE(ParseScenario("strategy: BFS\n", "x").ok());
  EXPECT_FALSE(ParseScenario("latch_mode: hopeful\n", "x").ok());
  // A removed latch mode and removed keys fail with their line number.
  const struct {
    const char* text;
    const char* what;
    const char* line;
  } removed[] = {
      {"threads: 2\nlatch_mode: subtree\n", "(want global|coupled)",
       "line 2"},
      {"expect_zero_escalations: true\n", "unknown key", "line 1"},
      {"backend: file\nfsync: true\n", "unknown key 'fsync'", "line 2"},
      {"backend: file\nio_engine: pool\n", "unknown key 'io_engine'",
       "line 2"},
  };
  for (const auto& c : removed) {
    auto spec = ParseScenario(c.text, "x");
    ASSERT_FALSE(spec.ok()) << c.text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find(c.what), std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find(c.line), std::string::npos)
        << spec.status().ToString();
  }
  EXPECT_FALSE(ParseScenario("skew: volcano\n", "x").ok());
  EXPECT_FALSE(ParseScenario("wal: maybe\n", "x").ok());
  // Mix over 100%.
  EXPECT_FALSE(
      ParseScenario("update_pct: 80\ninsert_pct: 30\n", "x").ok());
  // No run bound.
  EXPECT_FALSE(ParseScenario("ops_per_thread: 0\n", "x").ok());
  // Zero clients / empty workload.
  EXPECT_FALSE(ParseScenario("threads: 0\n", "x").ok());
  EXPECT_FALSE(ParseScenario("objects: 0\n", "x").ok());
}

TEST(ScenarioParseTest, RejectsNonStrictIntegers) {
  // Integer keys used bare strtoull, which silently accepted signs,
  // whitespace, hex, and trailing junk (and wrapped "-1" to 2^64-1).
  // Each must now fail with the offending key and line in the message.
  for (const char* line :
       {"threads: -1\n", "objects: +5\n", "seed: 0x2a\n",
        "page_size: 4k\n", "ops_per_thread: 1e3\n",
        "knn_k: -8\n", "wal_group_commit_us: 150us\n",
        "flash_interval: 99999999999999999999\n"}) {
    auto spec = ParseScenario(line, "strict");
    ASSERT_FALSE(spec.ok()) << line;
    EXPECT_NE(spec.status().message().find("bad unsigned integer"),
              std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find("line 1"), std::string::npos);
  }
}

TEST(ScenarioParseTest, RejectsMalformedNumbers) {
  // atof ran each of these: "6O" as 6% updates, "0,03" as a zero move.
  for (const char* line :
       {"update_pct: 6O\n", "max_move: 0,03\n", "buffer: abc\n",
        "query_dim: 0.01x\n", "hot_prob: nan\n", "duration_s: inf\n",
        "expect_min_tps: 1e999\n"}) {
    auto spec = ParseScenario(line, "strict");
    ASSERT_FALSE(spec.ok()) << line;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find("bad number"), std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find("line 1"), std::string::npos);
  }
}

TEST(ScenarioParseTest, RejectsSkewFractionsOutOfRange) {
  // hot_fraction 0 used to parse, then abort the run at SkewPicker's
  // CHECK — even with skew: none.
  const std::pair<const char*, const char*> cases[] = {
      {"skew: none\nhot_fraction: 0\n", "line 2"},
      {"hot_fraction: 1.5\n", "line 1"},
      {"hot_prob: -0.1\n", "line 1"},
      {"threads: 2\nhot_prob: 1.01\n", "line 2"},
  };
  for (const auto& [text, line] : cases) {
    auto spec = ParseScenario(text, "skew");
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(spec.status().message().find("out of range"),
              std::string::npos)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find(line), std::string::npos)
        << spec.status().ToString();
  }
  // The closed ends of both ranges stay legal.
  EXPECT_TRUE(ParseScenario("hot_fraction: 1\nhot_prob: 0\n", "x").ok());
  EXPECT_TRUE(ParseScenario("hot_prob: 1\n", "x").ok());
}

TEST(ScenarioGridTest, ExpandsCrossProductFirstKeySlowest) {
  auto cells = ParseScenarioGrid(
      "strategy: TD | LBU | GBU\nthreads: 2\nupdate_pct: 0 | 50\n", "g");
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells.value().size(), 6u);
  const StrategyKind strategies[] = {StrategyKind::kTopDown,
                                     StrategyKind::kLocalizedBottomUp,
                                     StrategyKind::kGeneralizedBottomUp};
  for (size_t i = 0; i < 6; ++i) {
    const ScenarioSpec& s = cells.value()[i];
    EXPECT_EQ(s.base.strategy, strategies[i / 2]) << i;
    EXPECT_DOUBLE_EQ(s.update_pct, i % 2 == 0 ? 0.0 : 50.0) << i;
    EXPECT_EQ(s.threads, 2u) << i;
  }
}

TEST(ScenarioGridTest, CellNamesAreUniqueAndDeterministic) {
  const std::string text =
      "name: sweep\nlatch_mode: global | coupled\nshards: 1 | 8\n";
  auto a = ParseScenarioGrid(text, "file_stem");
  auto b = ParseScenarioGrid(text, "file_stem");
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::string> names;
  for (const ScenarioSpec& s : a.value()) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "sweep/latch_mode=global/shards=1",
                       "sweep/latch_mode=global/shards=8",
                       "sweep/latch_mode=coupled/shards=1",
                       "sweep/latch_mode=coupled/shards=8"}));
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(b.value()[i].name, names[i]);
  }

  // Without lists the spec is one cell under its plain name.
  auto plain = ParseScenarioGrid("threads: 2\n", "plain");
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain.value().size(), 1u);
  EXPECT_EQ(plain.value()[0].name, "plain");
}

TEST(ScenarioGridTest, CommaInsideIngestStaysOneValue) {
  auto cells = ParseScenarioGrid(
      "ingest: workers=0 | workers=4,batch=64\n", "batch");
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ASSERT_EQ(cells.value().size(), 2u);
  EXPECT_EQ(cells.value()[0].base.ingest.workers, 0u);
  EXPECT_EQ(cells.value()[1].base.ingest.workers, 4u);
  EXPECT_EQ(cells.value()[1].base.ingest.max_batch, 64u);
  EXPECT_EQ(cells.value()[1].name, "batch/ingest=workers=4,batch=64");
}

TEST(ScenarioGridTest, BadListsFailWithTheirLineNumber) {
  const std::pair<const char*, const char*> cases[] = {
      {"threads: 2\nname: a | b\n", "line 2"},
      {"strategy: TD | | GBU\n", "line 1"},
      {"threads: 2\n\nupdate_pct: 10 |\n", "line 3"},
      {"shards: | 4\n", "line 1"},
      {"shards: 4 | 4\n", "line 1"},
      // A bad element fails the cell that carries it, at the file line.
      {"threads: 2\nupdate_pct: 10 | 6O\n", "line 2"},
  };
  for (const auto& [text, line] : cases) {
    auto cells = ParseScenarioGrid(text, "bad");
    ASSERT_FALSE(cells.ok()) << text;
    EXPECT_EQ(cells.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cells.status().message().find(line), std::string::npos)
        << cells.status().ToString();
  }
}

TEST(ScenarioLoadTest, LoadsDirectorySortedAndSkipsOtherFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("burtree-scn-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "20_b.scn") << "ops_per_thread: 5\n";
  std::ofstream(dir / "10_a.scn") << "ops_per_thread: 5\n";
  std::ofstream(dir / "README.md") << "not a scenario\n";
  auto specs = LoadScenarioDir(dir.string());
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs.value().size(), 2u);
  EXPECT_EQ(specs.value()[0].name, "10_a");
  EXPECT_EQ(specs.value()[1].name, "20_b");

  // A directory with no specs is an error, not an empty suite.
  const std::filesystem::path empty = dir / "empty";
  std::filesystem::create_directories(empty);
  EXPECT_FALSE(LoadScenarioDir(empty.string()).ok());
  // A list-valued file contributes every cell, in order.
  std::ofstream(dir / "30_grid.scn") << "ops_per_thread: 5\nshards: 1 | 2\n";
  specs = LoadScenarioDir(dir.string());
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs.value().size(), 4u);
  EXPECT_EQ(specs.value()[2].name, "30_grid/shards=1");
  EXPECT_EQ(specs.value()[3].name, "30_grid/shards=2");
  // Two files naming the same scenario would collapse into one gate row.
  std::ofstream(dir / "40_dup.scn") << "name: 10_a\nops_per_thread: 5\n";
  EXPECT_FALSE(LoadScenarioDir(dir.string()).ok());
  std::filesystem::remove(dir / "40_dup.scn");
  // A malformed file poisons the whole load.
  std::ofstream(dir / "50_bad.scn") << "nonsense_key: 1\n";
  EXPECT_FALSE(LoadScenarioDir(dir.string()).ok());
  std::filesystem::remove_all(dir);
}

// ---- End-to-end runs (small: the suite's own CI sizing lives in
// bench/suite/*.scn; these pin RunScenario's semantics) ----

ScenarioSpec SmallSpec() {
  ScenarioSpec spec;
  spec.name = "unit";
  spec.base.workload.num_objects = 2000;
  spec.base.workload.seed = 7;
  spec.threads = 4;
  spec.ops_per_thread = 150;
  return spec;
}

TEST(RunScenarioTest, ChurnConservationAcrossLatchModes) {
  for (LatchMode mode : {LatchMode::kGlobal, LatchMode::kCoupled}) {
    ScenarioSpec spec = SmallSpec();
    spec.base.strategy = StrategyKind::kGeneralizedBottomUp;
    spec.base.latch_mode = mode;
    spec.update_pct = 30;
    spec.insert_pct = 25;
    spec.delete_pct = 25;
    spec.knn_pct = 10;
    auto run = RunScenario(spec);
    ASSERT_TRUE(run.ok()) << LatchModeName(mode) << ": "
                          << run.status().ToString();
    const ScenarioResult& r = run.value();
    EXPECT_TRUE(r.check_failures.empty())
        << LatchModeName(mode) << ": " << r.check_failures[0];
    EXPECT_EQ(r.final_objects, r.expected_objects) << LatchModeName(mode);
    EXPECT_GT(r.ops_insert, 0u);
    EXPECT_GT(r.ops_delete, 0u);
    EXPECT_GT(r.ops_knn, 0u);
    EXPECT_EQ(r.total_ops, spec.threads * spec.ops_per_thread);
  }
}

TEST(RunScenarioTest, OpCountsAreSeedDeterministic) {
  ScenarioSpec spec = SmallSpec();
  spec.update_pct = 40;
  spec.insert_pct = 15;
  spec.delete_pct = 15;
  spec.knn_pct = 10;
  spec.skew.kind = SkewKind::kHotspot;
  auto a = RunScenario(spec);
  auto b = RunScenario(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().ops_update, b.value().ops_update);
  EXPECT_EQ(a.value().ops_insert, b.value().ops_insert);
  EXPECT_EQ(a.value().ops_delete, b.value().ops_delete);
  EXPECT_EQ(a.value().ops_query, b.value().ops_query);
  EXPECT_EQ(a.value().ops_knn, b.value().ops_knn);
  EXPECT_EQ(a.value().final_objects, b.value().final_objects);
}

TEST(RunScenarioTest, FailedChecksAreReportedNotFatal) {
  ScenarioSpec spec = SmallSpec();
  spec.ops_per_thread = 50;
  // Unreachable floor: the run itself succeeds, the check fails.
  spec.expect_min_tps = 1e12;
  auto run = RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run.value().check_failures.size(), 1u);
  EXPECT_NE(run.value().check_failures[0].find("tps"), std::string::npos);
}

TEST(RunScenarioTest, IngestPoolRoutesWritesAndBalances) {
  ScenarioSpec spec = SmallSpec();
  spec.base.strategy = StrategyKind::kGeneralizedBottomUp;
  spec.base.latch_mode = LatchMode::kCoupled;
  spec.base.ingest.workers = 2;
  spec.base.ingest.max_batch = 16;
  spec.update_pct = 50;
  spec.insert_pct = 20;
  spec.delete_pct = 10;
  auto run = RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const ScenarioResult& r = run.value();
  EXPECT_TRUE(r.check_failures.empty()) << r.check_failures[0];
  // Updates and inserts went through the pool; deletes stayed direct.
  EXPECT_GE(r.ingest_stats.submitted, r.ops_update + r.ops_insert);
  EXPECT_GT(r.ingest_stats.batches, 0u);
  EXPECT_EQ(r.final_objects, r.expected_objects);
}

TEST(RunScenarioTest, TimeBoundRunStopsAndIsNotOpsBound) {
  ScenarioSpec spec = SmallSpec();
  spec.duration_s = 0.2;
  spec.ops_per_thread = 0;  // duration-bound runs ignore the op cap
  auto run = RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run.value().ops_bound);
  EXPECT_GT(run.value().total_ops, 0u);
  EXPECT_GE(run.value().elapsed_s, 0.2);
  EXPECT_TRUE(run.value().check_failures.empty());
}

TEST(RunScenarioTest, WalBackedScenarioRunsDurably) {
  ScenarioSpec spec = SmallSpec();
  spec.base.storage.backend = StorageBackend::kFile;
  spec.base.storage.wal.enabled = true;
  spec.base.buffer_fraction = 0.1;
  spec.threads = 2;
  spec.ops_per_thread = 60;
  spec.update_pct = 50;
  spec.insert_pct = 20;
  spec.delete_pct = 10;
  auto run = RunScenario(spec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().check_failures.empty())
      << run.value().check_failures[0];
  // Every logical op was bracketed in a WAL scope.
  EXPECT_GT(run.value().wal_stats.records, 0u);
}

}  // namespace
}  // namespace burtree
