#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace burtree {

std::string BufferStats::ToString() const {
  char buf[200];
  std::snprintf(
      buf, sizeof(buf),
      "BufferStats{hits=%llu, misses=%llu, evictions=%llu, flushes=%llu, "
      "hit_rate=%.3f}",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(flushes), hit_rate());
  return buf;
}

double BufferPoolStats::imbalance() const {
  if (shards.empty()) return 1.0;
  uint64_t max_n = 0;
  uint64_t sum = 0;
  for (const auto& s : shards) {
    const uint64_t n = s.hits + s.misses;
    max_n = std::max(max_n, n);
    sum += n;
  }
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(shards.size());
  return static_cast<double>(max_n) / mean;
}

std::string BufferPoolStats::ToString() const {
  const BufferStats t = total();
  char buf[240];
  std::snprintf(
      buf, sizeof(buf),
      "BufferPoolStats{shards=%zu, hits=%llu, misses=%llu, evictions=%llu, "
      "flushes=%llu, hit_rate=%.3f, imbalance=%.2f}",
      shards.size(), static_cast<unsigned long long>(t.hits),
      static_cast<unsigned long long>(t.misses),
      static_cast<unsigned long long>(t.evictions),
      static_cast<unsigned long long>(t.flushes), t.hit_rate(), imbalance());
  return buf;
}

uint64_t PercentileNs(std::vector<uint64_t>& samples, double p) {
  if (samples.empty()) return 0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  // Nearest rank: ceil(p/100 * N), 1-based; as a 0-based index.
  size_t rank = static_cast<size_t>(
      clamped / 100.0 * static_cast<double>(samples.size()) + 0.999999);
  if (rank > 0) --rank;
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

LatencySummary SummarizeLatencyNs(std::vector<uint64_t>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  unsigned __int128 sum = 0;
  for (uint64_t v : samples) sum += v;
  s.mean_us =
      static_cast<double>(static_cast<uint64_t>(sum / samples.size())) /
      1000.0;
  s.p50_us = static_cast<double>(PercentileNs(samples, 50.0)) / 1000.0;
  s.p99_us = static_cast<double>(PercentileNs(samples, 99.0)) / 1000.0;
  return s;
}

std::string IoStats::ToString() const {
  char buf[120];
  std::snprintf(buf, sizeof(buf), "IoStats{reads=%llu, writes=%llu}",
                static_cast<unsigned long long>(reads()),
                static_cast<unsigned long long>(writes()));
  return buf;
}

}  // namespace burtree
