#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/bits.h"

namespace perfbench {

using burtree::Point;
using burtree::ObjectId;
using burtree::StatusOr;
using burtree::UpdateResult;

namespace {

constexpr const char* kNames[kSpanNameCount] = {
    "op.update",      "op.insert",         "op.delete",
    "op.query",       "op.knn",            "ingest.submit",
    "ingest.wait",    "cc.update",         "cc.insert",
    "cc.delete",      "cc.query",          "cc.knn",
    "update.plan",    "update.scoped",     "update.full",
    "update.predict", "wal.durable_wait",  "wal.checkpoint",
    "buffer.flush_all"};

static_assert(sizeof(Span) == 32, "span records are written as 32 bytes");

std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadSpans>> registry;  // guarded by registry_mu
thread_local ThreadSpans* local_buffer = nullptr;

bool IsUpdateSpan(uint16_t name) {
  return name == kUpdatePlan || name == kUpdateScoped ||
         name == kUpdateFull || name == kUpdatePredict;
}

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

struct UpdateKeyHash {
  size_t operator()(const UpdateKey& k) const {
    uint64_t h = burtree::Mix64(k.oid);
    for (double d : {k.from.x, k.from.y, k.to.x, k.to.y}) {
      h = burtree::Mix64(h ^ DoubleBits(d));
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

const char* SpanNameString(SpanName name) {
  return name < kSpanNameCount ? kNames[name] : "?";
}

void Tracer::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

ThreadSpans& Tracer::Local() {
  if (local_buffer == nullptr) {
    std::lock_guard lock(registry_mu);
    registry.push_back(std::make_unique<ThreadSpans>());
    registry.back()->thread = static_cast<uint16_t>(registry.size() - 1);
    local_buffer = registry.back().get();
  }
  return *local_buffer;
}

void Tracer::SetClientOp(uint64_t op) {
  ThreadSpans& t = Local();
  t.client = true;
  t.current_op = op;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Record(SpanName name, int64_t start_ns, int64_t end_ns,
                        uint32_t parent) {
  ThreadSpans& t = Local();
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.op = t.current_op;
  s.parent = parent;
  s.name = name;
  s.thread = t.thread;
  t.spans.push_back(s);
  return static_cast<uint32_t>(t.spans.size());
}

std::vector<ThreadSpans*> Tracer::Buffers() {
  std::lock_guard lock(registry_mu);
  std::vector<ThreadSpans*> out;
  for (auto& b : registry) out.push_back(b.get());
  return out;
}

ScopedSpan::ScopedSpan(SpanName name, const UpdateKey* key) {
  if (!Tracer::enabled()) return;
  ThreadSpans& t = Tracer::Local();
  const uint32_t parent = t.stack.empty() ? 0 : t.stack.back();
  index_ = Tracer::Record(name, Tracer::NowNs(), 0, parent);
  t.stack.push_back(index_);
  if (key != nullptr && t.current_op == 0) t.unlinked.emplace_back(index_, *key);
}

ScopedSpan::~ScopedSpan() {
  if (index_ == 0) return;
  ThreadSpans& t = Tracer::Local();
  t.spans[index_ - 1].end_ns = Tracer::NowNs();
  t.stack.pop_back();
}

SpanAnalysis AnalyseSpans() {
  const std::vector<ThreadSpans*> buffers = Tracer::Buffers();
  std::unordered_map<UpdateKey, uint64_t, UpdateKeyHash> ops;
  for (const ThreadSpans* b : buffers) {
    for (const auto& [op, key] : b->op_keys) ops.emplace(key, op);
  }
  SpanAnalysis a;
  for (ThreadSpans* b : buffers) {
    for (const auto& [index, key] : b->unlinked) {
      auto it = ops.find(key);
      if (it != ops.end()) {
        b->spans[index - 1].op = it->second;
      } else {
        ++a.worker_spans_unlinked;
      }
    }
    std::vector<double> child_us(b->spans.size(), 0.0);
    for (const Span& s : b->spans) {
      if (s.parent != 0) {
        child_us[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      SpanTotals& t = a.by_name[s.name];
      ++t.count;
      t.total_us += us;
      t.self_us += us - child_us[i];
      if (!b->client && IsUpdateSpan(s.name)) {
        a.worker_update_us += us;
        ++a.worker_spans;
      }
    }
    a.spans += b->spans.size();
  }
  return a;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string header = "perfbench-spans v1 record=32B names=";
  for (int i = 0; i < kSpanNameCount; ++i) {
    header += (i ? "," : "");
    header += kNames[i];
  }
  header += "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  for (const ThreadSpans* b : Tracer::Buffers()) {
    if (!ok || b->spans.empty()) continue;
    ok = std::fwrite(b->spans.data(), sizeof(Span), b->spans.size(), f) ==
         b->spans.size();
  }
  return std::fclose(f) == 0 && ok;
}

StatusOr<UpdateResult> TracingStrategy::Update(ObjectId oid,
                                               const Point& old_pos,
                                               const Point& new_pos) {
  const UpdateKey key{oid, old_pos, new_pos};
  ScopedSpan span(kUpdateFull, &key);
  return inner_->Update(oid, old_pos, new_pos);
}

burtree::UpdatePlan TracingStrategy::PlanUpdate(ObjectId oid,
                                                const Point& old_pos,
                                                const Point& new_pos) {
  const UpdateKey key{oid, old_pos, new_pos};
  ScopedSpan span(kUpdatePlan, &key);
  return inner_->PlanUpdate(oid, old_pos, new_pos);
}

StatusOr<UpdateResult> TracingStrategy::UpdateScoped(
    burtree::UpdateLatchScope& scope, const burtree::UpdatePlan& plan,
    ObjectId oid, const Point& old_pos, const Point& new_pos) {
  const UpdateKey key{oid, old_pos, new_pos};
  ScopedSpan span(kUpdateScoped, &key);
  StatusOr<UpdateResult> r =
      inner_->UpdateScoped(scope, plan, oid, old_pos, new_pos);
  if (Tracer::enabled()) {
    scoped_calls_.fetch_add(1, std::memory_order_relaxed);
    if (r.status().code() == burtree::StatusCode::kLatchContention) {
      scoped_contended_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return r;
}

burtree::PageId TracingStrategy::PredictEscalationDest(
    burtree::UpdateLatchScope& scope, const burtree::UpdatePlan& plan,
    ObjectId oid, const Point& old_pos, const Point& new_pos) {
  const UpdateKey key{oid, old_pos, new_pos};
  ScopedSpan span(kUpdatePredict, &key);
  return inner_->PredictEscalationDest(scope, plan, oid, old_pos, new_pos);
}

burtree::UpdatePathCounts TracingStrategy::CombinedPathCounts() const {
  burtree::UpdatePathCounts a = inner_->path_counts();
  const burtree::UpdatePathCounts b = path_counts();
  a.in_place += b.in_place;
  a.extend += b.extend;
  a.sibling += b.sibling;
  a.ascend += b.ascend;
  a.root_insert += b.root_insert;
  a.top_down += b.top_down;
  return a;
}

}  // namespace perfbench
