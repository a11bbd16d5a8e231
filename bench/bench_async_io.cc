// Async I/O engine queue-depth sweep: what overlapping buffer misses
// buys on a miss-bound file-backend read storm. Each cell cold-scans
// every page of a FilePageStore through a BufferPool whose working set
// never revisits a page — a pure miss storm — in prefetch batches of
// queue-depth size. The store carries a sleep-model synthetic seek
// (--io-latency-us), so the sync engine pays one full seek per miss
// while an async engine keeps `depth` seeks in flight:
//
//   sync          the classic blocking miss path (PrefetchPages no-ops)
//   pool@d        submission/completion thread pool, d workers
//   uring@d       raw-syscall io_uring, d in-flight SQEs (falls back to
//                 pool when the kernel/sandbox refuses io_uring_setup —
//                 the engine column reports what actually ran)
//
// The headline column is speedup vs the sync row; the acceptance target
// (docs/ROADMAP): depth >= 4x threads must clear 1.5x sync. p50/p99 are
// per-FetchPage, so a batch's rendezvous fetch (waits out the whole
// in-flight run) lands in the tail while the already-landed frames are
// hits near zero. --json emits BENCH_async.json.
#include <cinttypes>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "buffer/buffer_pool.h"
#include "storage/file_page_store.h"

using namespace burtree;
using namespace burtree::bench;

namespace {

struct SweepConfig {
  size_t pages = 2048;
  size_t page_size = 1024;
  size_t threads = 1;
  uint64_t io_latency_us = 200;
  uint64_t seed = 20030901;
};

struct CellResult {
  IoEngineKind ran = IoEngineKind::kSync;  // after any uring fallback
  size_t depth = 0;
  double tps = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double speedup = 1.0;
  uint64_t prefetched = 0;
};

// Scratch dir for the backing file (TMPDIR wins so CI can pin tmpfs).
std::string ScratchDir() {
  const char* tmp = ::getenv("TMPDIR");
  return (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(i, v.size() - 1)];
}

// One engine x depth cell: fill the file sync (no latency), then scan
// every page exactly once — prefetch a depth-sized batch, fetch each
// page (rendezvousing with its in-flight read), unpin clean. Capacity
// covers the whole scan so prefetch always has free room; the cell
// measures read overlap, not eviction policy (the write-back path has
// its own tests and grids/durability.scn).
CellResult RunCell(const SweepConfig& cfg, IoEngineKind engine,
                   size_t depth) {
  FilePageStoreOptions fopts;
  fopts.path = ScratchDir() + "/bench_async_io.pages";
  fopts.page_size = cfg.page_size;
  fopts.unlink_after_open = true;
  fopts.io_engine = engine;
  fopts.io_queue_depth = depth;
  auto store_or = FilePageStore::Open(fopts);
  BURTREE_CHECK(store_or.ok());
  std::unique_ptr<FilePageStore> store = std::move(store_or).value();

  std::vector<uint8_t> buf(cfg.page_size, 0xAB);
  for (size_t i = 0; i < cfg.pages; ++i) {
    const PageId id = store->Allocate();
    BURTREE_CHECK(store->Write(id, buf.data()).ok());
  }
  // The synthetic seek starts with the scan; overlap means concurrently
  // sleeping seeks.
  store->set_io_latency_ns(cfg.io_latency_us * 1000);

  BufferPool pool(store.get(), /*capacity=*/cfg.pages + cfg.threads,
                  /*shards=*/1);
  const size_t batch = std::max<size_t>(depth, 1);
  std::vector<std::vector<double>> lat_us(cfg.threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      const PageId lo =
          static_cast<PageId>(cfg.pages * t / cfg.threads);
      const PageId hi =
          static_cast<PageId>(cfg.pages * (t + 1) / cfg.threads);
      lat_us[t].reserve(hi - lo);
      for (PageId base = lo; base < hi;
           base += static_cast<PageId>(batch)) {
        const PageId end =
            std::min<PageId>(base + static_cast<PageId>(batch), hi);
        std::vector<PageId> ids;
        for (PageId id = base; id < end; ++id) ids.push_back(id);
        pool.PrefetchPages(ids);  // no-op on the sync engine
        for (PageId id = base; id < end; ++id) {
          const auto f0 = std::chrono::steady_clock::now();
          auto p = pool.FetchPage(id);
          BURTREE_CHECK(p.ok());
          pool.UnpinPage(id, /*dirty=*/false);
          lat_us[t].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - f0)
                  .count());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  std::vector<double> all;
  for (auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  CellResult r;
  r.ran = store->io_engine_active();
  r.depth = depth;
  r.tps = static_cast<double>(cfg.pages) / elapsed;
  double sum = 0.0;
  for (double v : all) sum += v;
  r.mean_us = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
  r.p50_us = Percentile(all, 0.50);
  r.p99_us = Percentile(all, 0.99);
  r.prefetched = pool.stats().prefetched;
  store->set_io_latency_ns(0);
  BURTREE_CHECK(pool.FlushAll().ok());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  SweepConfig cfg;
  cfg.pages = static_cast<size_t>(cli.GetInt("pages", 2048));
  cfg.page_size = static_cast<size_t>(cli.GetInt("page-size", 1024));
  cfg.threads = static_cast<size_t>(cli.GetInt("threads", 1));
  cfg.io_latency_us =
      static_cast<uint64_t>(cli.GetInt("io-latency-us", 200));
  const std::vector<size_t> depths =
      ParseCountList(cli.GetString("depths", "1,4,8,16"));
  const std::string json_path = cli.GetString("json", "");
  cli.ExitIfHelpRequested(
      argv[0],
      "Miss-storm scan: sync baseline, then pool/uring per depth.");

  std::printf("=== Async I/O queue-depth sweep (miss storm) ===\n");
  std::printf("workload: %zu pages x %zu B, %zu thread%s, "
              "synthetic seek %" PRIu64 " us (sleep model)\n\n",
              cfg.pages, cfg.page_size, cfg.threads,
              cfg.threads == 1 ? "" : "s", cfg.io_latency_us);

  std::vector<CellResult> rows;
  rows.push_back(RunCell(cfg, IoEngineKind::kSync, 0));
  const double sync_tps = rows[0].tps;
  for (IoEngineKind engine :
       {IoEngineKind::kPool, IoEngineKind::kUring}) {
    for (size_t depth : depths) {
      rows.push_back(RunCell(cfg, engine, depth));
    }
  }
  for (auto& r : rows) r.speedup = r.tps / sync_tps;

  TablePrinter t({"engine", "depth", "reads/s", "mean(us)", "p50(us)",
                  "p99(us)", "prefetched", "vs sync"});
  size_t row_i = 0;
  for (const CellResult& r : rows) {
    // Row 0 is the sync baseline; async rows are labeled by the engine
    // that was *requested* (pairing with depth), with the engine that
    // actually ran in parentheses after a uring fallback.
    const bool is_sync = row_i == 0;
    const IoEngineKind asked =
        is_sync ? IoEngineKind::kSync
                : (row_i <= depths.size() ? IoEngineKind::kPool
                                          : IoEngineKind::kUring);
    std::string label = IoEngineName(asked);
    if (asked != r.ran) {
      label += std::string(" (ran ") + IoEngineName(r.ran) + ")";
    }
    t.AddRow({label, is_sync ? "-" : std::to_string(r.depth),
              TablePrinter::Fmt(r.tps, 0), TablePrinter::Fmt(r.mean_us, 1),
              TablePrinter::Fmt(r.p50_us, 1),
              TablePrinter::Fmt(r.p99_us, 1),
              std::to_string(r.prefetched),
              TablePrinter::Fmt(r.speedup, 2) + "x"});
    ++row_i;
  }
  t.Print(std::cout);
  std::printf("\n");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"bench_async_io\",\n"
                 "  \"pages\": %zu,\n"
                 "  \"page_size\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"io_latency_us\": %" PRIu64 ",\n"
                 "  \"rows\": [\n",
                 cfg.pages, cfg.page_size, cfg.threads, cfg.io_latency_us);
    row_i = 0;
    for (const CellResult& r : rows) {
      const bool is_sync = row_i == 0;
      const IoEngineKind asked =
          is_sync ? IoEngineKind::kSync
                  : (row_i <= depths.size() ? IoEngineKind::kPool
                                            : IoEngineKind::kUring);
      std::fprintf(
          f,
          "    {\"engine\": \"%s\", \"engine_ran\": \"%s\", "
          "\"queue_depth\": %zu, \"tps\": %.1f, \"mean_us\": %.1f, "
          "\"p50_us\": %.1f, \"p99_us\": %.1f, "
          "\"prefetched\": %" PRIu64 ", \"speedup_vs_sync\": %.3f}%s\n",
          IoEngineName(asked), IoEngineName(r.ran), r.depth, r.tps,
          r.mean_us, r.p50_us, r.p99_us, r.prefetched, r.speedup,
          row_i + 1 < rows.size() ? "," : "");
      ++row_i;
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
