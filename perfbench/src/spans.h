// Span recording for the traced benchmark run. Spans are recorded only by
// the benchmark's own code, around its calls into each burtree layer (and
// inside a forwarding UpdateStrategy it hands to ConcurrentIndex), into
// per-thread memory; the run analyses them in process and writes them
// out when it ends. Nothing here runs when tracing is off except one
// relaxed load per span site.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "update/strategy.h"

namespace perfbench {

enum SpanName : uint16_t {
  kOpUpdate,
  kOpInsert,
  kOpDelete,
  kOpQuery,
  kOpKnn,
  kIngestSubmit,
  kIngestWait,
  kCcUpdate,
  kCcInsert,
  kCcDelete,
  kCcQuery,
  kCcKnn,
  kUpdatePlan,
  kUpdateScoped,
  kUpdateFull,
  kUpdatePredict,
  kWalDurableWait,
  kWalCheckpoint,
  kBufferFlushAll,
  kSpanNameCount
};

const char* SpanNameString(SpanName name);

/// One recorded interval. `parent` is the 1-based index of the enclosing
/// span in the same thread's buffer (0 = a root); `op` is the client op
/// the span belongs to (0 = none: run-end spans, or ingest-worker spans
/// that could not be linked to an op).
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;
  uint32_t parent = 0;
  uint16_t name = 0;
  uint16_t thread = 0;
};

/// An update's identity, used to link ingest-worker spans (which see only
/// the strategy call's arguments) to the client op that submitted it.
struct UpdateKey {
  burtree::ObjectId oid = 0;
  burtree::Point from;
  burtree::Point to;
  bool operator==(const UpdateKey& o) const {
    return oid == o.oid && from.x == o.from.x && from.y == o.from.y &&
           to.x == o.to.x && to.y == o.to.y;
  }
};

struct ThreadSpans {
  uint16_t thread = 0;
  bool client = false;
  std::vector<Span> spans;
  /// Spans recorded with no current op on this thread, keyed for linking.
  std::vector<std::pair<uint32_t, UpdateKey>> unlinked;
  /// Client ops whose strategy calls run on another thread.
  std::vector<std::pair<uint64_t, UpdateKey>> op_keys;
  std::vector<uint32_t> stack;  ///< open ScopedSpans (1-based indices)
  uint64_t current_op = 0;
};

/// Process-wide span store. Spans are recorded only while tracing is
/// enabled; Buffers() runs with no recording thread active, and recording
/// itself touches only the calling thread's buffer.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  /// The calling thread's buffer, registered on first use.
  static ThreadSpans& Local();
  /// Marks the calling thread as a client and sets its current op (0 =
  /// between ops).
  static void SetClientOp(uint64_t op);
  /// Appends a finished span with an explicit parent; returns its index.
  static uint32_t Record(SpanName name, int64_t start_ns, int64_t end_ns,
                         uint32_t parent);
  static int64_t NowNs();
  static std::vector<ThreadSpans*> Buffers();

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span on the calling thread, nested under the innermost open one.
/// With a key and no current op (an ingest worker), the span is queued
/// for linking to the submitting client op.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, const UpdateKey* key = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint32_t index_ = 0;  ///< 0 = tracing off
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus same-thread children
};

struct SpanAnalysis {
  std::array<SpanTotals, kSpanNameCount> by_name{};
  /// update.* time on non-client threads (ingest workers).
  double worker_update_us = 0.0;
  uint64_t worker_spans = 0;
  uint64_t worker_spans_unlinked = 0;
  uint64_t spans = 0;
};

/// Links worker spans to client ops by UpdateKey, then aggregates.
SpanAnalysis AnalyseSpans();

/// Writes every span as fixed 32-byte little-endian records after a
/// one-line text header naming the span names; returns false on I/O error.
bool WriteSpans(const std::string& path);

/// Forwarding strategy for the traced run: while tracing is enabled, times
/// each strategy call as an update.* span and counts scoped attempts that
/// bailed on contention; otherwise it only forwards.
/// Escalated-path bookkeeping lands in this wrapper's own counters (the
/// cc layer calls RecordEscalatedPath on the strategy it was given), so
/// the full path mix is CombinedPathCounts().
class TracingStrategy final : public burtree::UpdateStrategy {
 public:
  explicit TracingStrategy(burtree::UpdateStrategy* inner) : inner_(inner) {}

  burtree::StatusOr<burtree::UpdateResult> Update(
      burtree::ObjectId oid, const burtree::Point& old_pos,
      const burtree::Point& new_pos) override;
  burtree::UpdatePlan PlanUpdate(burtree::ObjectId oid,
                                 const burtree::Point& old_pos,
                                 const burtree::Point& new_pos) override;
  burtree::StatusOr<burtree::UpdateResult> UpdateScoped(
      burtree::UpdateLatchScope& scope, const burtree::UpdatePlan& plan,
      burtree::ObjectId oid, const burtree::Point& old_pos,
      const burtree::Point& new_pos) override;
  burtree::PageId PredictEscalationDest(burtree::UpdateLatchScope& scope,
                                        const burtree::UpdatePlan& plan,
                                        burtree::ObjectId oid,
                                        const burtree::Point& old_pos,
                                        const burtree::Point& new_pos) override;
  bool SupportsCoupledEscalation() const override {
    return inner_->SupportsCoupledEscalation();
  }
  const char* name() const override { return inner_->name(); }

  burtree::UpdatePathCounts CombinedPathCounts() const;
  uint64_t scoped_calls() const { return scoped_calls_.load(); }
  uint64_t scoped_contended() const { return scoped_contended_.load(); }

 private:
  burtree::UpdateStrategy* inner_;
  std::atomic<uint64_t> scoped_calls_{0};
  std::atomic<uint64_t> scoped_contended_{0};
};

}  // namespace perfbench
