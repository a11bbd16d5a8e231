// The benchmark's metrics, computed from one or two timed phases: the
// end-to-end set every run prints, and the per-layer set of a traced run.
// README.md defines each one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phase.h"
#include "spans.h"

namespace perfbench {

struct Metric {
  Metric(std::string n, double v, std::string u, uint64_t s = 0,
         std::string why_absent = "")
      : name(std::move(n)),
        value(v),
        unit(std::move(u)),
        samples(s),
        absent(std::move(why_absent)) {}
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< percentiles: how many latencies they rank
  std::string absent;    ///< why the metric does not apply (value 0)
};

double Median(std::vector<double> v);

/// The p-quantile of `v` (0 <= p <= 1), interpolating linearly between
/// neighbouring order statistics; 0 when `v` is empty.
double Quantile(std::vector<double> v, double p);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

/// The timed phase is cut into slices of equally many completed ops, in
/// completion order. Each time metric is the figure of the least disturbed
/// tenth of the slices: the 10th percentile over slices of a latency, the
/// 90th of a rate. The host steals vCPU time in bursts that can cover most
/// of a run, and a stolen slice only ever reads slower.
constexpr size_t kSlices = 60;
constexpr double kSliceQuantile = 0.1;
/// Fewest latencies in a percentile slice, so that a slice's p99 has ten
/// latencies above it.
constexpr size_t kMinSliceOps = 1000;

/// Completed ops per second of each of kSlices slices of all ops.
std::vector<double> SliceRates(const PhaseResult& r);

/// The `pct` percentile latency in µs of each slice of the `kind` ops:
/// kSlices slices, fewer where the kind has under kMinSliceOps ops per
/// slice, and one when it has under kMinSliceOps in all.
std::vector<double> SlicePercentiles(const PhaseResult& r, int kind,
                                     double pct);

/// setup_s is the median of `setups` (seconds per set-up).
std::vector<Metric> EndToEndMetrics(const PhaseResult& r,
                                    const std::vector<double>& setups,
                                    size_t page_size);

/// Counters come from the untraced phase `r`, span-derived metrics and
/// the tracing overhead from `traced` and `spans`.
std::vector<Metric> PerLayerMetrics(const PhaseResult& r,
                                    const PhaseResult& traced,
                                    const SpanAnalysis& spans,
                                    const std::vector<SetupTimes>& setups,
                                    size_t page_size, bool durable);

}  // namespace perfbench
