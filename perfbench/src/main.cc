// perfbench_driver: one benchmark run of one workload against the burtree
// library as shipped. Sets the system up several times (setup_s is their
// median), runs a fixed-op-count closed-loop timed phase with the
// workload's client threads on the last set-up, checks the index against
// the benchmark's own record of every acknowledged position, and prints
// every metric by name with its unit. The last stdout line is the result
// object run.py relays.
//
//   --trace 0  end-to-end metrics of one untraced timed phase.
//   --trace 1  the same untraced timed phase, then a traced one on the same
//              set-up whose rounds are alternately untraced and traced;
//              prints the per-layer metrics (counters from the first phase,
//              spans from the traced one) and the tracing overhead between
//              neighbouring rounds.
#include <sys/statfs.h>
#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/parse.h"
#include "metrics.h"
#include "phase.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Override for the benchmark's own tests (toy runs).
  uint64_t ops_per_client = 0;  ///< 0 = derived from --seconds
  RunConfig run;
};

/// Set-ups per run; setup_s and the setup.* metrics are their medians.
constexpr int kSetups = 3;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload tracking|read_mostly|"
               "durable_ingest --seed N --seconds N --trace 0|1\n"
               "  [--out-dir DIR] [--scratch-dir DIR] [--objects N] "
               "[--clients N] [--ops-per-client N]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string v = argv[++i];
    uint64_t u = 0;
    auto num = [&](uint64_t lo, uint64_t hi) {
      if (!burtree::ParseUint64(v, &u) || u < lo || u > hi) {
        Usage("bad value '" + v + "' for " + key);
      }
      return u;
    };
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.run.seed = num(0, UINT64_MAX);
    } else if (key == "--seconds") {
      a.seconds = num(1, 3600);
    } else if (key == "--trace") {
      a.trace = num(0, 1) == 1;
    } else if (key == "--out-dir") {
      a.out_dir = v;
    } else if (key == "--scratch-dir") {
      a.run.scratch_dir = v;
    } else if (key == "--objects") {
      a.run.objects = num(100, 100000000);
    } else if (key == "--clients") {
      a.run.clients = static_cast<uint32_t>(num(1, 64));
    } else if (key == "--ops-per-client") {
      a.ops_per_client = num(1, 1000000000);
    } else {
      Usage("unknown flag " + key);
    }
  }
  const WorkloadSpec* spec = FindWorkload(a.workload);
  if (spec == nullptr) Usage("unknown workload '" + a.workload + "'");
  if (a.run.clients == 0) a.run.clients = spec->clients;
  return a;
}

// ---------------------------------------------------------------------
// Run record: the hardware and build every number came from. Read through
// syscalls and cpuid only, so the run touches no file outside its checkout.

struct Host {
  unsigned nproc = 0;
  std::string cpu = "unknown";
  std::string kernel = "unknown";
  std::string scratch_dir;
  std::string scratch_fs = "unknown";
};

Host DescribeHost(const std::string& scratch_dir) {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    h.cpu = brand;
    h.cpu.erase(0, h.cpu.find_first_not_of(' '));
  }
#endif
  struct utsname u;
  if (uname(&u) == 0) h.kernel = u.release;
  std::error_code ec;
  h.scratch_dir = std::filesystem::absolute(scratch_dir, ec).string();
  struct statfs fs;
  if (statfs(scratch_dir.c_str(), &fs) == 0) {
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0x01021994UL: h.scratch_fs = "tmpfs"; break;
      case 0xEF53UL: h.scratch_fs = "ext4"; break;
      case 0x9123683EUL: h.scratch_fs = "btrfs"; break;
      case 0x58465342UL: h.scratch_fs = "xfs"; break;
      case 0x794C7630UL: h.scratch_fs = "overlayfs"; break;
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(fs.f_type));
        h.scratch_fs = buf;
      }
    }
  }
  return h;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
         ", \"unit\": " + Quote(m.unit) + "}";
  }
  return s + "}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.4f %-16s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" samples=%" PRIu64, m.samples);
    if (!m.absent.empty()) std::printf(" absent: %s", m.absent.c_str());
    std::printf("\n");
  }
}

void PrintSlices(const PhaseResult& r) {
  auto print = [](const char* label, const std::vector<double>& v) {
    std::printf("slices %s:", label);
    for (double x : v) std::printf(" %.0f", x);
    std::printf("\n");
  };
  print("ops/s", SliceRates(r));
  print("update p99 us", SlicePercentiles(r, kUpdate, 99));
  print("query p99 us", SlicePercentiles(r, kQuery, 99));
}

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("phase %s: %.3f s, %" PRIu64 " ops completed\n", label,
              r.elapsed_s, r.completed);
  for (int k = 0; k < kOpKinds; ++k) {
    const KindTally& t = r.kinds[k].tally;
    std::printf(
        "  ops %-7s attempted=%" PRIu64 " completed=%" PRIu64
        " failed=%" PRIu64 " dgl_abort_retries=%" PRIu64 "\n",
        OpKindName(k), t.attempted, t.completed, t.failed, t.retried);
  }
  std::printf("  wal checkpoints in timed phase=%" PRIu64
              "; run end: durable wait %.3f ms, checkpoint %.3f ms, "
              "flush %.3f ms\n",
              r.timed_end.wal.checkpoints - r.before.wal.checkpoints,
              r.durable_wait_ms, r.checkpoint_ms, r.flush_ms);
  std::printf("  checks: validate + every object's position (%" PRIu64
              " of %" PRIu64
              " objects) + 48 window + 16 kNN oracle queries: %s\n",
              r.final_objects, r.expected_objects,
              r.check_failures.empty() ? "passed" : "FAILED");
  for (const std::string& f : r.check_failures) {
    std::printf("  check failed: %s\n", f.c_str());
  }
}

void PrintSpanBreakdown(const SpanAnalysis& s) {
  std::printf("spans: %" PRIu64 " recorded, worker update.* spans %" PRIu64
              " (%" PRIu64 " not linked to a client op)\n",
              s.spans, s.worker_spans, s.worker_spans_unlinked);
  for (int n = 0; n < kSpanNameCount; ++n) {
    const SpanTotals& t = s.by_name[n];
    if (t.count == 0) continue;
    std::printf("  span %-18s count=%-9" PRIu64
                " mean=%10.3f us  self=%10.3f us\n",
                SpanNameString(static_cast<SpanName>(n)), t.count,
                t.total_us / static_cast<double>(t.count),
                t.self_us / static_cast<double>(t.count));
  }
  const SpanTotals& upd = s.by_name[kOpUpdate];
  if (upd.count > 0 && s.by_name[kCcUpdate].count > 0) {
    auto share = [&](SpanName n) {
      return 100.0 * s.by_name[n].total_us / upd.total_us;
    };
    std::printf(
        "  direct update breakdown: plan %.1f%%, scoped %.1f%%, full %.1f%%, "
        "predict %.1f%%, cc self %.1f%% of op.update\n",
        share(kUpdatePlan), share(kUpdateScoped), share(kUpdateFull),
        share(kUpdatePredict),
        100.0 * s.by_name[kCcUpdate].self_us / upd.total_us);
  }
}

std::string OpsJson(const PhaseResult& r) {
  std::ostringstream o;
  o << "{";
  for (int k = 0; k < kOpKinds; ++k) {
    const KindTally& t = r.kinds[k].tally;
    o << (k ? ", " : "") << Quote(OpKindName(k)) << ": {\"attempted\": "
      << t.attempted << ", \"completed\": " << t.completed
      << ", \"failed\": " << t.failed << ", \"dgl_abort_retries\": "
      << t.retried << "}";
  }
  o << ", \"wal_checkpoints\": "
    << r.timed_end.wal.checkpoints - r.before.wal.checkpoints << "}";
  return o.str();
}

std::string RecordJson(const Args& args, const Host& host,
                       const Deployment& d, uint64_t ops_per_client) {
  std::ostringstream o;
  o << "{\"workload\": " << Quote(args.workload) << ", \"seed\": "
    << args.run.seed << ", \"seconds\": " << args.seconds
    << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"nproc\": "
    << host.nproc << ", \"cpu\": " << Quote(host.cpu)
    << ", \"kernel\": " << Quote(host.kernel)
    << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
    << ", \"scratch_dir\": " << Quote(host.scratch_dir)
    << ", \"scratch_fs\": " << Quote(host.scratch_fs)
    << ", \"clients\": " << args.run.clients
    << ", \"ops_per_client\": " << ops_per_client
    << ", \"objects\": " << args.run.objects
    << ", \"tree_pages\": " << d.tree_pages
    << ", \"buffer_pages\": " << d.buffer_pages
    << ", \"height\": " << d.height << "}";
  return o.str();
}

int Main(int argc, char** argv) {
  const int64_t process_start = Tracer::NowNs();
  const Args args = ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::filesystem::create_directories(args.run.scratch_dir, ec);
  const Host host = DescribeHost(args.run.scratch_dir);

  const uint64_t ops_per_client =
      args.ops_per_client > 0
          ? args.ops_per_client
          : static_cast<uint64_t>(std::ceil(
                spec.nominal_ops_per_s * static_cast<double>(args.seconds) /
                args.run.clients));
  // Latency buffers exist before any set-up, so peak RSS does not depend
  // on when they grow.
  std::vector<std::vector<LatencySample>> samples(args.run.clients);
  for (auto& s : samples) {
    s.reserve(std::max(ops_per_client, kWarmOpsPerClient));
  }

  // Every set-up but the last is discarded after it is timed. A traced run
  // hands the last one the forwarding strategy, which records nothing
  // while tracing is off.
  std::vector<SetupTimes> times;
  std::vector<double> totals;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    auto s = Setup(spec, args.run, args.trace && i + 1 == kSetups, &samples,
                   i == 0 ? process_start : Tracer::NowNs());
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench_driver: set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    d = std::move(s).value();
    times.push_back(d->times);
    totals.push_back(d->times.total_s);
  }
  const PhaseResult untraced =
      TimedPhase(*d, args.run, ops_per_client, /*traced=*/false);
  PhaseResult traced;
  if (args.trace) {
    traced = TimedPhase(*d, args.run, ops_per_client, /*traced=*/true);
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%" PRIu64
              " trace=%d\n",
              args.workload.c_str(), args.run.seed, args.seconds,
              args.trace ? 1 : 0);
  const std::string record = RecordJson(args, host, *d, ops_per_client);
  std::printf("record %s\n", record.c_str());
  PrintPhase(args.trace ? "untraced" : "timed", untraced);
  PrintSlices(untraced);
  if (args.trace) PrintPhase("traced", traced);

  const bool correct =
      untraced.check_failures.empty() && traced.check_failures.empty();
  if (!correct) {
    std::fprintf(stderr, "perfbench_driver: correctness checks failed\n");
    return 1;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(untraced, totals,
                              d->system().file().page_size());
  } else {
    const SpanAnalysis spans = AnalyseSpans();
    PrintSpanBreakdown(spans);
    const std::string span_path =
        args.out_dir + "/spans-" + args.workload + ".bin";
    if (!WriteSpans(span_path)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   span_path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", span_path.c_str());
    std::printf("traced phase rounds (ops/s, traced in brackets):");
    for (size_t i = 0; i < traced.round_ops_per_s.size(); ++i) {
      std::printf(i % 2 ? " [%.0f]" : " %.0f", traced.round_ops_per_s[i]);
    }
    std::printf("\n");
    metrics = PerLayerMetrics(untraced, traced, spans, times,
                              d->system().file().page_size(), spec.durable);
  }
  PrintMetrics(metrics);

  const std::string json = "{\"correct\": true, \"attempted\": " +
                           std::to_string(untraced.attempted +
                                          traced.attempted) +
                           ", \"failed\": " +
                           std::to_string(untraced.failed + traced.failed) +
                           ", \"metrics\": " + MetricsJson(metrics) + "}";
  const std::string result_path = args.out_dir + "/result-" + args.workload +
                                  "-seed" + std::to_string(args.run.seed) +
                                  "-trace" + (args.trace ? "1" : "0") +
                                  ".json";
  std::ofstream(result_path) << "{\"record\": " << record
                             << ", \"ops\": " << OpsJson(untraced)
                             << ", \"result\": " << json << "}\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
