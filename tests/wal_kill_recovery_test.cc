// Kill-9 crash-recovery torture test — the WAL's headline proof.
//
// Each parameterized case forks a child that builds a GBU index on the
// real-file backend with the WAL enabled, then hammers it with
// concurrent coupled-mode updates and inserts (including the compound
// pending/completed-insert protocol and frequent auto-checkpoints)
// until the parent SIGKILLs it at a seed-randomized moment — mid-SMO,
// mid-group-commit, mid-checkpoint, wherever the clock lands. The
// parent then runs the documented recovery procedure on the two files
// the corpse left behind and audits the full invariant set:
//
//   * the data file (tail-truncated if torn) + the valid log prefix
//     replay into a structurally valid R-tree (Validate());
//   * object conservation: no oid appears twice, every initial object
//     is present, and every insert the child acknowledged as durable
//     (via the watermark protocol below) is present;
//   * a hash index rebuilt from the recovered tree is consistent.
//
// Watermark protocol: the child's main thread repeatedly snapshots the
// workers' acknowledged-insert counters, calls WaitDurable on the
// current append LSN (everything acknowledged before the snapshot is
// appended before it), and atomically (write + rename) publishes the
// snapshot. Whatever watermark the parent finds after the kill is
// therefore a *durable* lower bound on what recovery must restore.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrency_test_util.h"
#include "ingest/ingest_pool.h"
#include "storage/file_page_store.h"
#include "storage/wal/wal_manager.h"

namespace burtree {
namespace {

constexpr size_t kPageSize = 256;
constexpr uint64_t kInitialObjects = 400;
constexpr unsigned kWorkers = 4;
/// Worker t inserts fresh oids kInitialObjects + t * kOidStride + n.
constexpr uint64_t kOidStride = 1u << 20;

struct Layout {
  std::string dir;
  std::string data;
  std::string wal;
  std::string watermark;
};

Layout MakeLayout(int seed) {
  Layout l;
  const char* tmp = ::getenv("TMPDIR");
  std::string base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  l.dir = base + "/burtree-kill9-" + std::to_string(::getpid()) + "-" +
          std::to_string(seed);
  std::filesystem::remove_all(l.dir);
  std::filesystem::create_directories(l.dir);
  l.data = l.dir + "/tree.pages";
  l.wal = l.dir + "/tree.wal";
  l.watermark = l.dir + "/watermark";
  return l;
}

ExperimentConfig ChildConfig(const Layout& l, int seed) {
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = kInitialObjects;
  cfg.workload.max_move_distance = 0.05;
  cfg.workload.seed = 1000u + static_cast<uint64_t>(seed);
  cfg.page_size = kPageSize;
  cfg.buffer_fraction = 0.25;  // small pool: constant eviction traffic
  cfg.buffer_shards = 2;
  cfg.latch_mode = LatchMode::kCoupled;
  cfg.storage.backend = StorageBackend::kFile;
  cfg.storage.file_dir = l.dir;
  cfg.storage.file_path = l.data;
  cfg.storage.wal.enabled = true;
  cfg.storage.wal.path = l.wal;
  cfg.storage.wal.group_commit_us = 100;
  // Tiny checkpoint threshold: several auto-checkpoints per second of
  // traffic, so kills land mid-checkpoint too.
  cfg.storage.wal.checkpoint_log_bytes = 256u << 10;
  return cfg;
}

/// Child body; never returns. Exit codes mark child-side failures the
/// parent turns into test failures (the expected end is SIGKILL).
///
/// With ingest_workers > 0 the clients submit through an 8-worker
/// IngestPool instead of calling the per-op path: group execution's WAL
/// scopes, batch page groups, and handle-completion ordering all get
/// SIGKILLed mid-flight. The watermark protocol still holds — a handle
/// completes only after its batch's WAL scope committed the record, so
/// an acknowledged insert is appended before the next WaitDurable.
[[noreturn]] void ChildMain(const Layout& l, int seed,
                            uint32_t ingest_workers) {
  const ExperimentConfig cfg = ChildConfig(l, seed);
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  if (!BuildIndex(cfg, workload, &fx).ok()) ::_exit(3);
  IndexSystem& sys = *fx.system;

  ConcurrencyOptions copts;
  copts.latch_mode = LatchMode::kCoupled;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  std::unique_ptr<IngestPool> ingest;
  if (ingest_workers > 0) {
    IngestOptions iopts;
    iopts.workers = ingest_workers;
    iopts.max_batch = 32;
    ingest = std::make_unique<IngestPool>(&index, iopts);
  }

  std::atomic<uint64_t> acked_inserts[kWorkers] = {};
  std::atomic<bool> child_failed{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(cfg.workload.seed * 31337 + t);
      const uint64_t lo = kInitialObjects * t / kWorkers;
      const uint64_t hi = kInitialObjects * (t + 1) / kWorkers;
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      uint64_t inserted = 0;
      while (!child_failed.load(std::memory_order_relaxed)) {
        if (rng.NextBool(0.8)) {
          const uint64_t k = rng.NextBelow(hi - lo);
          const Point from = pos[k];
          // Long moves leave the leaf, exercising the coupled
          // escalation's two-phase remove + re-insert protocol.
          const double d = rng.NextDouble() * cfg.workload.max_move_distance;
          const double a = rng.NextDouble() * 2.0 * M_PI;
          Point to{from.x + d * std::cos(a), from.y + d * std::sin(a)};
          to.x = std::clamp(to.x < 0 ? -to.x : (to.x > 1 ? 2 - to.x : to.x),
                            0.0, 1.0);
          to.y = std::clamp(to.y < 0 ? -to.y : (to.y > 1 ? 2 - to.y : to.y),
                            0.0, 1.0);
          const Status st = ingest != nullptr
                                ? ingest->Update(lo + k, from, to)
                                : index.Update(lo + k, from, to);
          if (!st.ok()) {
            child_failed = true;
            break;
          }
          pos[k] = to;
        } else {
          const ObjectId oid = kInitialObjects + t * kOidStride + inserted;
          const Point p{rng.NextDouble(), rng.NextDouble()};
          const Status st = ingest != nullptr ? ingest->Insert(oid, p)
                                              : index.Insert(oid, p);
          if (!st.ok()) {
            child_failed = true;
            break;
          }
          ++inserted;
          acked_inserts[t].store(inserted, std::memory_order_release);
        }
      }
    });
  }

  // Watermark loop: durable lower bounds, atomically published.
  const std::string tmp_path = l.watermark + ".tmp";
  while (!child_failed.load(std::memory_order_relaxed)) {
    uint64_t snap[kWorkers];
    for (unsigned t = 0; t < kWorkers; ++t) {
      snap[t] = acked_inserts[t].load(std::memory_order_acquire);
    }
    if (!sys.wal()->WaitDurable(sys.wal()->appended_lsn()).ok()) ::_exit(4);
    std::FILE* f = std::fopen(tmp_path.c_str(), "w");
    if (f == nullptr) ::_exit(5);
    std::fprintf(f, "%llu %llu %llu %llu %llu\n",
                 static_cast<unsigned long long>(kInitialObjects),
                 static_cast<unsigned long long>(snap[0]),
                 static_cast<unsigned long long>(snap[1]),
                 static_cast<unsigned long long>(snap[2]),
                 static_cast<unsigned long long>(snap[3]));
    std::fclose(f);
    if (::rename(tmp_path.c_str(), l.watermark.c_str()) != 0) ::_exit(6);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& th : workers) th.join();
  ::_exit(3);  // an op failed — the parent reports it
}

/// Whole kill-recover-audit cycle, shared by the per-op and batched-
/// ingestion suites (they differ only in the child's write path).
void RunKillRecoveryCase(int seed, uint32_t ingest_workers) {
  const Layout l = MakeLayout(seed);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    ChildMain(l, seed, ingest_workers);  // never returns
  }

  // Wait for the first durable watermark, then kill at a seed-spread
  // delay so the 20 cases crash at 20 different execution phases.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!std::filesystem::exists(l.watermark)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child never published a watermark";
    // A child that died before the first watermark is a hard failure.
    int early_status = 0;
    ASSERT_EQ(::waitpid(pid, &early_status, WNOHANG), 0)
        << "child exited prematurely, status " << early_status;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t delay_us =
      (static_cast<uint64_t>(seed) * 2654435761ull) % 250000ull;
  std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL: status " << status
      << (WIFEXITED(status) ? " (exit code " +
                                  std::to_string(WEXITSTATUS(status)) + ")"
                            : "");

  // ---- Durable watermark the recovery must honor ----
  unsigned long long initial = 0, durable_ins[kWorkers] = {};
  {
    std::FILE* f = std::fopen(l.watermark.c_str(), "r");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fscanf(f, "%llu %llu %llu %llu %llu", &initial,
                          &durable_ins[0], &durable_ins[1], &durable_ins[2],
                          &durable_ins[3]),
              5);
    std::fclose(f);
    ASSERT_EQ(initial, kInitialObjects);
  }

  // ---- Recovery, exactly as docs/STORAGE.md prescribes ----
  // 1. A crashed writer may leave a torn tail page; drop it (its record
  //    is durable — log-before-flush — so replay rewrites it).
  struct stat st {};
  ASSERT_EQ(::stat(l.data.c_str(), &st), 0);
  if (static_cast<size_t>(st.st_size) % kPageSize != 0) {
    ASSERT_EQ(::truncate(l.data.c_str(),
                         st.st_size - static_cast<off_t>(
                                          static_cast<size_t>(st.st_size) %
                                          kPageSize)),
              0);
  }
  // 2. Adopt the data file and replay the valid log prefix onto it.
  FilePageStoreOptions fopts;
  fopts.path = l.data;
  fopts.page_size = kPageSize;
  fopts.truncate = false;
  auto store_or = FilePageStore::Open(fopts);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  std::unique_ptr<FilePageStore> store = std::move(store_or).value();
  auto info_or = WalManager::Replay(l.wal, store.get());
  ASSERT_TRUE(info_or.ok()) << info_or.status().ToString();
  const WalRecoveryInfo info = std::move(info_or).value();
  ASSERT_TRUE(info.has_root) << "no root survived in the log";

  // 3. Adopt the recovered root and re-insert the dangling compound
  //    updates (removal durable, re-insert not).
  BufferPool pool(store.get(), /*capacity=*/0);  // pass-through
  TreeOptions topts;
  topts.page_size = kPageSize;
  RTree tree(&pool, topts, RTree::AdoptRoot{}, info.root, info.root_level);
  for (const WalPendingInsert& p : info.pending_inserts) {
    ASSERT_TRUE(tree.Insert(p.oid, p.rect).ok())
        << "pending re-insert of oid " << p.oid << " failed";
  }

  // ---- Invariants ----
  ASSERT_TRUE(tree.Validate().ok());

  const std::vector<ObjectId> oids = testutil::CollectOids(tree);
  std::unordered_map<ObjectId, int> seen;
  for (const ObjectId oid : oids) {
    EXPECT_EQ(++seen[oid], 1) << "oid " << oid << " duplicated";
  }
  for (ObjectId oid = 0; oid < kInitialObjects; ++oid) {
    EXPECT_TRUE(seen.count(oid)) << "initial oid " << oid << " lost";
  }
  uint64_t durable_total = kInitialObjects;
  for (unsigned t = 0; t < kWorkers; ++t) {
    durable_total += durable_ins[t];
    for (uint64_t n = 0; n < durable_ins[t]; ++n) {
      const ObjectId oid = kInitialObjects + t * kOidStride + n;
      EXPECT_TRUE(seen.count(oid))
          << "durably acknowledged insert " << oid << " lost";
    }
  }
  // Nothing below the watermark lost, nothing invented: every present
  // oid is an initial object or lies in a worker's insert range.
  EXPECT_GE(oids.size(), durable_total);
  for (const ObjectId oid : oids) {
    if (oid < kInitialObjects) continue;
    const uint64_t t = (oid - kInitialObjects) / kOidStride;
    EXPECT_LT(t, kWorkers) << "unknown oid " << oid;
  }

  // A hash index rebuilt from the recovered tree is consistent — the
  // recovered tree can serve bottom-up updates again.
  HashIndex hidx(HashIndexOptions::MemoryResident());
  tree.ReplayStructureTo(&hidx);
  testutil::ExpectOidIndexConsistent(tree, hidx, oids);

  std::filesystem::remove_all(l.dir);
}

class WalKillRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(WalKillRecoveryTest, RecoversConsistentTreeAfterSigkill) {
  RunKillRecoveryCase(GetParam(), /*ingest_workers=*/0);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, WalKillRecoveryTest,
                         ::testing::Range(0, 20));

// Batched-ingestion variant: the child's clients submit through an
// 8-worker IngestPool, so the kill lands mid-group-execution — between
// a batch's WAL scope and its handles, mid-drain, mid-batch-split.
// Fewer crash points than the per-op suite (each case spins 8 extra
// worker threads), offset so the kill delays sample different phases.
class WalKillIngestRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(WalKillIngestRecoveryTest, RecoversAfterSigkillDuringIngest) {
  RunKillRecoveryCase(100 + GetParam(), /*ingest_workers=*/8);
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, WalKillIngestRecoveryTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace burtree
