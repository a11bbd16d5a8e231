// Sensor-grid monitoring: the paper's second application class —
// "enormous amounts of state samples obtained via sensors". A dense grid
// of environmental sensors reports drifting readings (temperature x
// humidity mapped to the unit square); a monitoring dashboard runs many
// concurrent range queries while samples stream in. Demonstrates the
// concurrent front end (DGL locking, 8 worker threads).
//
//   $ ./sensor_grid [--sensors 10000] [--threads 8] [--seconds 3]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "cc/concurrent_index.h"
#include "harness/cli.h"
#include "harness/experiment.h"

using namespace burtree;

int main(int argc, char** argv) {
  CliArgs cli(argc, argv);
  const uint64_t kSensors =
      CliArgs::Scaled(static_cast<uint64_t>(cli.GetInt("sensors", 10000)));
  const uint32_t kThreads =
      static_cast<uint32_t>(cli.GetInt("threads", 8));
  const double kSeconds = cli.GetDouble("seconds", 3.0);
  cli.ExitIfHelpRequested(argv[0]);

  // Sensor readings cluster around operating points: Gaussian initial
  // distribution, tiny drift per sample (strong update locality — the
  // regime where bottom-up updates shine).
  ExperimentConfig cfg;
  cfg.strategy = StrategyKind::kGeneralizedBottomUp;
  cfg.workload.num_objects = kSensors;
  cfg.workload.distribution = Distribution::kGaussian;
  cfg.workload.max_move_distance = 0.005;
  WorkloadGenerator workload(cfg.workload);
  StrategyFixture fx = MakeFixture(cfg);
  if (!BuildIndex(cfg, workload, &fx).ok()) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  std::printf("%llu sensors indexed (gaussian), tree height %u\n",
              static_cast<unsigned long long>(kSensors),
              fx.system->tree().height());

  ConcurrencyOptions copts;
  copts.io_latency_us = 20;  // fast SSD-ish simulated latency
  ConcurrentIndex index(fx.system.get(), fx.strategy.get(),
                        fx.executor.get(), copts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> samples{0}, dashboards{0}, alerts{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(900 + t);
      const uint64_t lo = kSensors * t / kThreads;
      const uint64_t hi = kSensors * (t + 1) / kThreads;
      std::vector<Point> pos(
          workload.initial_positions().begin() + static_cast<long>(lo),
          workload.initial_positions().begin() + static_cast<long>(hi));
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.NextBool(0.8)) {
          // A sensor sample: reading drifts slightly.
          const uint64_t k = rng.NextBelow(hi - lo);
          const Point from = pos[k];
          Point to{from.x + rng.NextDouble(-0.005, 0.005),
                   from.y + rng.NextDouble(-0.005, 0.005)};
          to.x = std::clamp(to.x, 0.0, 1.0);
          to.y = std::clamp(to.y, 0.0, 1.0);
          if (!index.Update(lo + k, from, to).ok()) {
            failed = true;
            return;
          }
          pos[k] = to;
          samples.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Dashboard range query: "sensors reading in this band".
          const Rect band = WorkloadGenerator::QueryWindowFrom(rng, 0.08);
          auto m = index.Query(band);
          if (!m.ok()) {
            failed = true;
            return;
          }
          dashboards.fetch_add(1, std::memory_order_relaxed);
          if (m.value() > kSensors / 20) {
            alerts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kSeconds * 1000)));
  stop = true;
  for (auto& w : workers) w.join();
  if (failed.load()) {
    std::fprintf(stderr, "worker failed\n");
    return 1;
  }

  const double tps =
      static_cast<double>(samples + dashboards) / kSeconds;
  std::printf(
      "ran %.1fs with %u threads: %llu samples, %llu dashboard queries "
      "(%llu dense-band alerts) -> %.0f ops/s\n",
      kSeconds, kThreads, static_cast<unsigned long long>(samples.load()),
      static_cast<unsigned long long>(dashboards.load()),
      static_cast<unsigned long long>(alerts.load()), tps);
  const LockStats ls = index.lock_manager().stats();
  std::printf("DGL: %llu lock acquisitions, %llu waits, %llu aborts\n",
              static_cast<unsigned long long>(ls.acquisitions),
              static_cast<unsigned long long>(ls.waits),
              static_cast<unsigned long long>(ls.aborts));
  if (!fx.system->tree().Validate().ok()) {
    std::fprintf(stderr, "tree validation FAILED\n");
    return 1;
  }
  std::printf("tree validated OK\n");
  return 0;
}
