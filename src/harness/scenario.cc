#include "harness/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "cc/backoff.h"
#include "common/parse.h"
#include "ingest/ingest_pool.h"

namespace burtree {

namespace {

bool ParseBool(const std::string& v, bool* out) {
  if (v == "true" || v == "1") {
    *out = true;
  } else if (v == "false" || v == "0") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

bool ParseStrategy(const std::string& v, StrategyKind* out) {
  if (v == "TD") {
    *out = StrategyKind::kTopDown;
  } else if (v == "LBU") {
    *out = StrategyKind::kLocalizedBottomUp;
  } else if (v == "GBU") {
    *out = StrategyKind::kGeneralizedBottomUp;
  } else {
    return false;
  }
  return true;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  size_t e = s.find_last_not_of(" \t\r");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

/// Drops a line's `#` comment and surrounding blanks.
std::string StripLine(std::string line) {
  const size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  return Trim(line);
}

}  // namespace

StatusOr<ScenarioSpec> ParseScenario(const std::string& text,
                                     const std::string& default_name) {
  ScenarioSpec spec;
  spec.name = default_name;
  // The suite's population and seed; every other key defaults per
  // ScenarioSpec / ExperimentConfig (no simulated I/O latency, 1% buffer).
  spec.base.workload.num_objects = 50000;
  spec.base.workload.seed = 20030901;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto err = [&](const std::string& what) {
    return Status::InvalidArgument("scenario '" + default_name + "' line " +
                                   std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    line = StripLine(line);
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return err("expected 'key: value', got '" + line + "'");
    }
    const std::string key = Trim(line.substr(0, colon));
    const std::string value = Trim(line.substr(colon + 1));
    if (value.empty()) return err("empty value for '" + key + "'");

    // Integer keys parse strictly (common/parse.h): a sign, whitespace,
    // a hex prefix, trailing junk, or overflow all fail here instead of
    // strtoull's silent wrap.
    uint64_t u64_v = 0;
    auto parse_u64 = [&]() { return ParseUint64(value, &u64_v); };
    auto bad_u64 = [&]() {
      return err("bad unsigned integer '" + value + "' for '" + key + "'");
    };

    // Real-valued keys parse strictly too: atof ran "6O" as 6 and
    // "0,03" as 0.
    const std::pair<const char*, double*> real_keys[] = {
        {"max_move", &spec.base.workload.max_move_distance},
        {"buffer", &spec.base.buffer_fraction},
        {"duration_s", &spec.duration_s},
        {"update_pct", &spec.update_pct},
        {"insert_pct", &spec.insert_pct},
        {"delete_pct", &spec.delete_pct},
        {"knn_pct", &spec.knn_pct},
        {"query_dim", &spec.query_max_dim},
        {"hot_fraction", &spec.skew.hot_fraction},
        {"hot_prob", &spec.skew.hot_prob},
        {"expect_min_tps", &spec.expect_min_tps},
    };
    const auto real = std::find_if(
        std::begin(real_keys), std::end(real_keys),
        [&](const auto& kv) { return key == kv.first; });
    if (real != std::end(real_keys)) {
      double v = 0.0;
      if (!ParseDouble(value, &v)) {
        return err("bad number '" + value + "' for '" + key + "'");
      }
      // SkewPicker CHECKs these ranges; reject them here with a line
      // number instead of aborting the run.
      if ((key == "hot_fraction" && !(v > 0.0 && v <= 1.0)) ||
          (key == "hot_prob" && !(v >= 0.0 && v <= 1.0))) {
        return err("'" + key + "' out of range: " + value +
                   (key == "hot_fraction" ? " (want (0, 1])"
                                          : " (want [0, 1])"));
      }
      *real->second = v;
      continue;
    }

    if (key == "name") {
      spec.name = value;
    } else if (key == "strategy") {
      if (!ParseStrategy(value, &spec.base.strategy)) {
        return err("unknown strategy '" + value + "' (want TD|LBU|GBU)");
      }
    } else if (key == "latch_mode") {
      if (!ParseLatchMode(value, &spec.base.latch_mode)) {
        return err("unknown latch_mode '" + value + "' (want global|coupled)");
      }
    } else if (key == "read_mode") {
      if (!ParseReadMode(value, &spec.base.read_mode)) {
        return err("unknown read_mode '" + value + "'");
      }
    } else if (key == "backend") {
      if (!ParseStorageBackend(value, &spec.base.storage)) {
        return err("unknown backend '" + value + "' (want mem|file[:dir])");
      }
    } else if (key == "wal") {
      if (!ParseBool(value, &spec.base.storage.wal.enabled)) {
        return err("bad bool '" + value + "'");
      }
    } else if (key == "wal_dir") {
      spec.base.storage.wal.dir = value;
    } else if (key == "wal_group_commit_us") {
      if (!parse_u64()) return bad_u64();
      spec.base.storage.wal.group_commit_us = u64_v;
    } else if (key == "objects") {
      if (!parse_u64()) return bad_u64();
      spec.base.workload.num_objects = u64_v;
    } else if (key == "distribution") {
      if (!ParseDistribution(value, &spec.base.workload.distribution)) {
        return err("unknown distribution '" + value + "'");
      }
    } else if (key == "seed") {
      if (!parse_u64()) return bad_u64();
      spec.base.workload.seed = u64_v;
    } else if (key == "shards") {
      if (!parse_u64()) return bad_u64();
      spec.base.buffer_shards = static_cast<size_t>(u64_v);
    } else if (key == "page_size") {
      if (!parse_u64()) return bad_u64();
      spec.base.page_size = static_cast<size_t>(u64_v);
    } else if (key == "forced_reinsert") {
      if (!ParseBool(value, &spec.base.forced_reinsert)) {
        return err("bad bool '" + value + "'");
      }
    } else if (key == "bulk_build") {
      if (!ParseBool(value, &spec.base.bulk_build)) {
        return err("bad bool '" + value + "'");
      }
    } else if (key == "ingest") {
      if (!ParseIngestSpec(value, &spec.base.ingest)) {
        return err("bad ingest spec '" + value +
                   "' (want workers=N[,batch=K])");
      }
    } else if (key == "threads") {
      if (!parse_u64()) return bad_u64();
      spec.threads = static_cast<uint32_t>(u64_v);
    } else if (key == "ops_per_thread") {
      if (!parse_u64()) return bad_u64();
      spec.ops_per_thread = u64_v;
    } else if (key == "knn_k") {
      if (!parse_u64()) return bad_u64();
      spec.knn_k = static_cast<size_t>(u64_v);
    } else if (key == "skew") {
      if (!ParseSkewKind(value, &spec.skew.kind)) {
        return err("unknown skew '" + value +
                   "' (want none|hotspot|flashcrowd)");
      }
    } else if (key == "flash_interval") {
      if (!parse_u64()) return bad_u64();
      spec.skew.flash_interval = u64_v;
    } else if (key == "io_latency_us") {
      if (!parse_u64()) return bad_u64();
      spec.io_latency_us = u64_v;
    } else if (key == "io_latency_in_op") {
      if (!ParseBool(value, &spec.io_latency_in_op)) {
        return err("bad bool '" + value + "'");
      }
    } else if (key == "expect_validate") {
      if (!ParseBool(value, &spec.expect_validate)) {
        return err("bad bool '" + value + "'");
      }
    } else if (key == "expect_conservation") {
      if (!ParseBool(value, &spec.expect_conservation)) {
        return err("bad bool '" + value + "'");
      }
    } else {
      return err("unknown key '" + key + "'");
    }
  }

  if (spec.name.empty()) {
    return Status::InvalidArgument("scenario has no name");
  }
  if (spec.threads == 0) {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "': threads must be >= 1");
  }
  if (spec.base.workload.num_objects == 0) {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "': objects must be >= 1");
  }
  const double mix = spec.update_pct + spec.insert_pct + spec.delete_pct +
                     spec.knn_pct;
  if (spec.update_pct < 0 || spec.insert_pct < 0 || spec.delete_pct < 0 ||
      spec.knn_pct < 0 || mix > 100.0 + 1e-9) {
    return Status::InvalidArgument(
        "scenario '" + spec.name +
        "': op percentages must be >= 0 and sum to <= 100");
  }
  if (spec.duration_s == 0.0 && spec.ops_per_thread == 0) {
    return Status::InvalidArgument("scenario '" + spec.name +
                                   "': needs ops_per_thread or duration_s");
  }
  return spec;
}

StatusOr<std::vector<ScenarioSpec>> ParseScenarioGrid(
    const std::string& text, const std::string& default_name) {
  // One axis per list-valued line: the line index and its values.
  struct Axis {
    size_t line;
    std::string key;
    std::vector<std::string> values;
  };
  std::vector<std::string> lines;
  std::vector<Axis> axes;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    lines.push_back(raw);
    const std::string line = StripLine(raw);
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;  // ParseScenario reports it
    const std::string value = line.substr(colon + 1);
    if (value.find('|') == std::string::npos) continue;
    Axis axis{lines.size() - 1, Trim(line.substr(0, colon)), {}};
    auto err = [&](const std::string& what) {
      return Status::InvalidArgument("scenario '" + default_name +
                                     "' line " +
                                     std::to_string(lines.size()) + ": " +
                                     what);
    };
    if (axis.key == "name") {
      return err("'name' cannot take a list: every cell is named from it");
    }
    std::istringstream elems(value);
    std::string elem;
    while (std::getline(elems, elem, '|')) {
      elem = Trim(elem);
      if (elem.empty()) return err("empty list element in '" + line + "'");
      if (std::find(axis.values.begin(), axis.values.end(), elem) !=
          axis.values.end()) {
        return err("duplicate list element '" + elem + "'");
      }
      axis.values.push_back(elem);
    }
    if (value.back() == '|') {
      return err("empty list element in '" + line + "'");
    }
    axes.push_back(std::move(axis));
  }

  // Cross product, first listed key slowest. Each cell rewrites only its
  // list lines, so ParseScenario's line numbers still match the file.
  size_t cells = 1;
  for (const Axis& axis : axes) cells *= axis.values.size();
  std::vector<ScenarioSpec> specs;
  for (size_t cell = 0; cell < cells; ++cell) {
    std::vector<std::string> cell_lines = lines;
    std::string suffix;
    size_t rest = cell;
    for (size_t a = axes.size(); a-- > 0;) {
      const Axis& axis = axes[a];
      const std::string& v = axis.values[rest % axis.values.size()];
      rest /= axis.values.size();
      cell_lines[axis.line] = axis.key + ": " + v;
      suffix = "/" + axis.key + "=" + v + suffix;
    }
    std::string cell_text;
    for (const std::string& l : cell_lines) cell_text += l + "\n";
    auto spec = ParseScenario(cell_text, default_name);
    BURTREE_RETURN_IF_ERROR(spec.status());
    specs.push_back(std::move(spec).value());
    specs.back().name += suffix;
  }
  return specs;
}

StatusOr<std::vector<ScenarioSpec>> LoadScenarioFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open scenario file " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseScenarioGrid(buf.str(),
                           std::filesystem::path(path).stem().string());
}

StatusOr<std::vector<ScenarioSpec>> LoadScenarioDir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::InvalidArgument("cannot read scenario dir " + dir +
                                   ": " + ec.message());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    return Status::InvalidArgument("no *.scn files in " + dir);
  }
  std::vector<ScenarioSpec> specs;
  std::set<std::string> names;
  for (const std::string& f : files) {
    auto cells = LoadScenarioFile(f);
    BURTREE_RETURN_IF_ERROR(cells.status());
    for (ScenarioSpec& spec : cells.value()) {
      // The gate keys rows by name; two files naming the same scenario
      // would silently collapse into one row.
      if (!names.insert(spec.name).second) {
        return Status::InvalidArgument("duplicate scenario name '" +
                                       spec.name + "' in " + f);
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

StatusOr<ScenarioResult> RunScenario(const ScenarioSpec& spec) {
  ExperimentConfig base = spec.base;
  WorkloadGenerator workload(base.workload);
  StrategyFixture fx = MakeFixture(base);
  BURTREE_RETURN_IF_ERROR(BuildIndex(base, workload, &fx));

  ConcurrencyOptions copts;
  copts.latch_mode = base.latch_mode;
  copts.read_mode = base.read_mode;
  copts.io_latency_us = spec.io_latency_us;
  copts.io_latency_in_op = spec.io_latency_in_op;
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  std::unique_ptr<IngestPool> ingest;
  if (base.ingest.workers > 0) {
    ingest = std::make_unique<IngestPool>(&index, base.ingest);
  }

  const uint32_t threads = spec.threads;
  const uint64_t objects = base.workload.num_objects;
  const SkewPicker picker(spec.skew);

  struct ClientTally {
    uint64_t updates = 0, inserts = 0, deletes = 0, queries = 0, knns = 0;
    int64_t net = 0;
    std::vector<uint64_t> latency_ns;
  };
  std::vector<ClientTally> tallies(threads);
  std::atomic<bool> failed{false};
  std::atomic<bool> stop{false};
  Status first_error;  // written by at most one client (guarded by failed)
  std::mutex error_mu;

  // The op mix is drawn from one NextDouble per op; every branch's
  // further draws depend only on the client's deterministic state, so
  // op-kind counts replay exactly (the regression gate's contract).
  const double p_update = spec.update_pct;
  const double p_insert = p_update + spec.insert_pct;
  const double p_delete = p_insert + spec.delete_pct;
  const double p_knn = p_delete + spec.knn_pct;

  const IndexSystem::IoBreakdown io0 = fx.system->SnapshotIo();
  Stopwatch run_sw;
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      Rng rng(base.workload.seed * 7919 + t);
      const uint64_t lo = objects * t / threads;
      const uint64_t hi = objects * (t + 1) / threads;
      const uint64_t range = hi - lo;
      // Thread-private positions of the client's initial objects
      // (disjoint ranges — no position races) + its churn ledger.
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      ChurnTracker churn(objects, t);
      ClientTally& tally = tallies[t];
      if (spec.duration_s == 0.0) {
        tally.latency_ns.reserve(spec.ops_per_thread);
      }
      auto fail_with = [&](const Status& st) {
        bool expected = false;
        if (failed.compare_exchange_strong(expected, true)) {
          std::lock_guard<std::mutex> g(error_mu);
          first_error = st;
        }
      };
      auto move_from = [&](const Point& from) {
        const double d =
            rng.NextDouble() * base.workload.max_move_distance;
        const double a = rng.NextDouble() * 2.0 * M_PI;
        Point to{from.x + d * std::cos(a), from.y + d * std::sin(a)};
        to.x = std::clamp(to.x < 0 ? -to.x : (to.x > 1 ? 2 - to.x : to.x),
                          0.0, 1.0);
        to.y = std::clamp(to.y < 0 ? -to.y : (to.y > 1 ? 2 - to.y : to.y),
                          0.0, 1.0);
        return to;
      };
      // A residual wait-die Abort can escape the DGL retry budget under a
      // hot granule. It fires before any tree mutation (in ingest mode
      // the pool's workers retry whole batches), so the op is re-run.
      // The backoff is seeded per client and op, never from `rng`, so op
      // counts stay a pure function of the seed.
      auto retry_aborted = [&](uint64_t op_index, auto&& op) {
        Status st = op();
        JitteredBackoff backoff((uint64_t{t} << 40) ^ op_index);
        while (st.code() == StatusCode::kAborted &&
               !failed.load(std::memory_order_relaxed)) {
          backoff.Sleep();
          st = op();
        }
        return st;
      };
      using Clock = std::chrono::steady_clock;
      for (uint64_t i = 0;; ++i) {
        if (failed.load(std::memory_order_relaxed)) break;
        if (spec.duration_s > 0.0) {
          if (stop.load(std::memory_order_relaxed)) break;
        } else if (i >= spec.ops_per_thread) {
          break;
        }
        const Clock::time_point op_start = Clock::now();
        const double r = rng.NextDouble() * 100.0;
        Status st;
        if (r < p_update && range > 0) {
          // Skewed pick over the client's initial range; churned
          // objects receive inserts/deletes, initial objects receive
          // the update traffic.
          const uint64_t k = picker.Pick(rng, range, i);
          const Point from = pos[k];
          const Point to = move_from(from);
          st = retry_aborted(i, [&] {
            return ingest != nullptr ? ingest->Update(lo + k, from, to)
                                     : index.Update(lo + k, from, to);
          });
          if (st.ok()) {
            pos[k] = to;
            ++tally.updates;
          }
        } else if (r < p_delete && r >= p_insert && churn.CanDelete()) {
          // Deletes only consume this client's own churned objects —
          // conservation stays exact: final = initial + net(churn).
          const auto victim = churn.TakeDelete(rng);
          st = retry_aborted(
              i, [&] { return index.Delete(victim.first, victim.second); });
          if (st.ok()) ++tally.deletes;
        } else if (r < p_delete) {
          // Insert pick, or a delete pick with nothing live yet (the
          // deterministic downgrade keeps the churn ledger exact).
          const Point p{rng.NextDouble(), rng.NextDouble()};
          const ObjectId oid = churn.MintInsert(p);
          st = retry_aborted(i, [&] {
            return ingest != nullptr ? ingest->Insert(oid, p)
                                     : index.Insert(oid, p);
          });
          if (st.ok()) ++tally.inserts;
        } else if (r < p_knn) {
          const Point q{rng.NextDouble(), rng.NextDouble()};
          st = retry_aborted(
              i, [&] { return index.Knn(q, spec.knn_k).status(); });
          if (st.ok()) ++tally.knns;
        } else {
          const Rect w =
              WorkloadGenerator::QueryWindowFrom(rng, spec.query_max_dim);
          st = retry_aborted(i, [&] { return index.Query(w).status(); });
          if (st.ok()) ++tally.queries;
        }
        if (!st.ok() && st.code() != StatusCode::kAborted) {
          fail_with(st);
          break;
        }
        tally.latency_ns.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - op_start)
                .count()));
      }
      tally.net = churn.net();
    });
  }
  if (spec.duration_s > 0.0) {
    // Time-bound (stability family): let the clients run, then signal.
    while (run_sw.ElapsedSeconds() < spec.duration_s &&
           !failed.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& th : pool) th.join();
  const double elapsed = run_sw.ElapsedSeconds();

  ScenarioResult res;
  res.name = spec.name;
  if (ingest != nullptr) {
    ingest->Shutdown();
    res.ingest_stats = ingest->stats();
  }
  if (failed.load()) {
    std::lock_guard<std::mutex> g(error_mu);
    return first_error;
  }

  res.elapsed_s = elapsed;
  res.ops_bound = spec.duration_s == 0.0;
  int64_t net = 0;
  std::vector<uint64_t> all_latencies;
  for (const ClientTally& tally : tallies) {
    res.ops_update += tally.updates;
    res.ops_insert += tally.inserts;
    res.ops_delete += tally.deletes;
    res.ops_query += tally.queries;
    res.ops_knn += tally.knns;
    net += tally.net;
    all_latencies.insert(all_latencies.end(), tally.latency_ns.begin(),
                         tally.latency_ns.end());
  }
  res.total_ops = res.ops_update + res.ops_insert + res.ops_delete +
                  res.ops_query + res.ops_knn;
  res.tps = elapsed > 0 ? static_cast<double>(res.total_ops) / elapsed : 0;
  res.latency = SummarizeLatencyNs(all_latencies);
  res.lock_stats = index.lock_manager().stats();
  res.latch_stats = index.latch_stats();
  IndexSystem& sys = *fx.system;
  if (sys.wal() != nullptr) res.wal_stats = sys.wal()->stats();
  res.hit_rate = sys.buffer().pool_stats().total().hit_rate();
  const IndexSystem::IoBreakdown io1 = sys.SnapshotIo();
  res.io_reads = (io1.tree - io0.tree).reads + (io1.hash - io0.hash).reads;
  res.io_writes =
      (io1.tree - io0.tree).writes + (io1.hash - io0.hash).writes;

  // ---- Expected-invariant checks on the quiesced tree ----
  res.expected_objects =
      static_cast<uint64_t>(static_cast<int64_t>(objects) + net);
  auto count = fx.executor->Query(Rect(0.0, 0.0, 1.0, 1.0));
  BURTREE_RETURN_IF_ERROR(count.status());
  res.final_objects = count.value();
  if (spec.expect_conservation &&
      res.final_objects != res.expected_objects) {
    res.check_failures.push_back(
        "conservation: final " + std::to_string(res.final_objects) +
        " != expected " + std::to_string(res.expected_objects));
  }
  if (spec.expect_validate) {
    // Min fill not enforced: concurrent escalations and churn deletes
    // may legally leave sparse-but-valid pages.
    const Status v = sys.tree().Validate(/*check_min_fill=*/false);
    if (!v.ok()) {
      res.check_failures.push_back("validate: " + v.ToString());
    }
  }
  if (spec.expect_min_tps > 0 && res.tps < spec.expect_min_tps) {
    res.check_failures.push_back(
        "tps " + std::to_string(res.tps) + " below floor " +
        std::to_string(spec.expect_min_tps));
  }
  return res;
}

}  // namespace burtree
