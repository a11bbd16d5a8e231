// Figure 6(g)-(h): effect of buffer size (0%..10% of the database).
// Expected: LBU beats TD only without a buffer; GBU significantly best;
// everything improves with more buffer.
//
// Second section (extension): sharded-pool update throughput. Bottom-up
// updates reduce to a handful of leaf-page touches, so at high thread
// counts the buffer pool latch — not the tree — is the hot path. The
// sweep drives T threads of leaf-touch updates (fetch page, mutate
// entry, unpin dirty) against pools with S LRU shards and reports ops/s
// per (shards × threads) cell. --figure / --shard-sweep toggle the
// sections; see bench/README.md for BURTREE_SCALE=20 numbers.
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "buffer/page_guard.h"
#include "common/random.h"

using namespace burtree;
using namespace burtree::bench;

namespace {

struct StressConfig {
  size_t pages = 2000;           // simulated database size in leaf pages
  double buffer_fraction = 0.25; // resident fraction of those pages
  double dirty_fraction = 1.0;   // share of touches that dirty the leaf
  // Hot/cold skew, mirroring the paper's skewed GSTD setting: most
  // touches land on a small hot region that the buffer keeps resident,
  // so the latch (not the simulated disk) is the contended resource.
  double hot_prob = 0.9;         // P(touch goes to the hot set)
  double hot_fraction = 0.1;     // hot set size as a fraction of pages
  // Simulated disk latency per miss/write-back batch (slept out). The
  // pool issues both miss reads and victim write-backs with no latch
  // held, so a slow access stalls only waiters on that page; the latch
  // itself is contended only by the in-memory bookkeeping. With the
  // file backend, real device time plays this role — set 0 there.
  uint64_t io_latency_us = 100;
  uint64_t total_ops = 50000;    // split across threads
  uint64_t seed = 20030901;
  StorageOptions storage;        // mem (synthetic latency) or file (real I/O)
};

struct StressResult {
  double ops_per_sec = 0.0;
  double hit_rate = 0.0;
  double imbalance = 1.0;
};

// One cell of the sweep: T threads of leaf-touch updates against an
// S-sharded pool over a fresh page store (--backend selects mem or file).
StressResult RunPoolStress(size_t shards, size_t threads,
                           const StressConfig& cfg) {
  std::unique_ptr<PageStore> file = MustMakePageStore(cfg.storage, 1024);
  file->set_io_latency_ns(cfg.io_latency_us * 1000);
  for (size_t i = 0; i < cfg.pages; ++i) file->Allocate();
  const size_t capacity = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(cfg.pages) *
                             cfg.buffer_fraction));
  BufferPool pool(file.get(), capacity, shards);

  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  Stopwatch sw;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(cfg.seed * 6364136223846793005ULL + t);
      const uint64_t ops = cfg.total_ops / threads;
      const size_t hot_pages = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(cfg.pages) *
                                 cfg.hot_fraction));
      for (uint64_t i = 0; i < ops && !failed; ++i) {
        const PageId id = static_cast<PageId>(
            rng.NextBool(cfg.hot_prob) ? rng.NextBelow(hot_pages)
                                       : rng.NextBelow(cfg.pages));
        auto res = pool.FetchPage(id);
        if (!res.ok()) {
          failed = true;
          break;
        }
        if (rng.NextBool(cfg.dirty_fraction)) {
          // Thread-unique byte: leaf mutation without cross-thread data
          // races (entry-level exclusion is the lock manager's job, not
          // the pool's).
          res.value()->data()[t % file->page_size()] ^= 0x5A;
          pool.UnpinPage(id, /*dirty=*/true);
        } else {
          pool.UnpinPage(id, /*dirty=*/false);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = sw.ElapsedSeconds();
  if (failed || !pool.FlushAll().ok()) {
    std::fprintf(stderr, "shard sweep worker failed\n");
    std::exit(1);
  }

  StressResult r;
  const BufferPoolStats ps = pool.pool_stats();
  const BufferStats total = ps.total();
  const uint64_t done = (cfg.total_ops / threads) * threads;
  r.ops_per_sec =
      elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0;
  r.hit_rate = total.hit_rate();
  r.imbalance = ps.imbalance();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  BenchArgs args = BenchArgs::FromCli(cli);
  const bool run_figure = cli.GetBool("figure", true);
  const bool run_sweep = cli.GetBool("shard-sweep", true);
  const std::vector<size_t> sweep_shards =
      ParseCountList(cli.GetString("sweep-shards", "1,2,4,8,16"));
  const std::vector<size_t> sweep_threads =
      ParseCountList(cli.GetString("sweep-threads", "1,4,8"));
  StressConfig stress;
  stress.buffer_fraction = cli.GetDouble("sweep-buffer", 0.25);
  stress.dirty_fraction = cli.GetDouble("sweep-dirty", 1.0);
  stress.hot_prob = cli.GetDouble("sweep-hot-prob", 0.9);
  stress.hot_fraction = cli.GetDouble("sweep-hot-frac", 0.1);
  stress.io_latency_us = static_cast<uint64_t>(
      cli.GetInt("sweep-io-latency-us", 100));
  stress.total_ops = CliArgs::Scaled(
      static_cast<uint64_t>(cli.GetInt("sweep-ops", 50000)));
  stress.storage = args.storage;  // --backend drives the sweep's store too
  cli.ExitIfHelpRequested(argv[0], BenchArgs::kScaleHelp);
  PrintHeader("Figure 6(g)-(h): varying buffer size", args);
  // ~25 leaf entries fit a 1 KB page, so the simulated database has one
  // leaf page per 25 objects (min 64 so tiny smoke runs still evict).
  stress.pages = std::max<size_t>(64, args.objects / 25);
  stress.seed = args.seed;

  if (run_figure) {
    const std::vector<double> fractions{0.0, 0.01, 0.03, 0.05, 0.10};

    std::vector<SeriesRow> rows;
    for (double f : fractions) {
      SeriesRow row;
      row.x = TablePrinter::Fmt(f * 100.0, 0) + "%";
      for (StrategyKind kind :
           {StrategyKind::kTopDown, StrategyKind::kLocalizedBottomUp,
            StrategyKind::kGeneralizedBottomUp}) {
        ExperimentConfig cfg = args.BaseConfig(kind);
        cfg.buffer_fraction = f;
        row.results.push_back(MustRun(cfg));
      }
      rows.push_back(std::move(row));
    }
    PrintFigurePanels("buffer", {"TD", "LBU", "GBU"}, rows, args.csv);
  }

  if (run_sweep && !sweep_shards.empty() && !sweep_threads.empty()) {
    std::printf(
        "-- Sharded pool: leaf-update throughput (ops/s), %llu ops, "
        "%zu pages, buffer %.0f%% --\n",
        static_cast<unsigned long long>(stress.total_ops), stress.pages,
        stress.buffer_fraction * 100.0);
    std::vector<std::string> headers{"shards"};
    for (size_t t : sweep_threads) {
      headers.push_back(std::to_string(t) + (t == 1 ? " thread" : " threads"));
    }
    // hit%/imbalance come from one cell per row (the last threads value);
    // label them so the table can't be misread as row-wide averages.
    const std::string at = "@" + std::to_string(sweep_threads.back()) + "t";
    headers.push_back("hit%" + at);
    headers.push_back("imbalance" + at);
    TablePrinter table(headers);
    for (size_t s : sweep_shards) {
      std::vector<std::string> cells{std::to_string(s)};
      StressResult last;
      for (size_t t : sweep_threads) {
        last = RunPoolStress(s, t, stress);
        cells.push_back(TablePrinter::Fmt(last.ops_per_sec, 0));
      }
      cells.push_back(TablePrinter::Fmt(last.hit_rate * 100.0, 1));
      cells.push_back(TablePrinter::Fmt(last.imbalance, 2));
      table.AddRow(std::move(cells));
    }
    if (args.csv) {
      table.PrintCsv(std::cout);
    } else {
      table.Print(std::cout);
    }
  }
  return 0;
}
