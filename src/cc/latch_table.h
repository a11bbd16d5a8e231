// Page-latch table for the coupled latch mode on the Figure-8 path.
//
// A LatchTable is a striped pool of reader/writer latches keyed by page
// id: pages hash onto a fixed power-of-two number of stripes, each owning
// one writer-priority DrainGate. Two pages that collide onto a stripe
// share a latch — safe (strictly more exclusion) and bounded-memory,
// which is why striped storage beats a true per-page map here.
//
// PageLatchSet is the RAII holder through which every latch is acquired.
// It enforces the deadlock-freedom protocol of the cc layer (see
// docs/ARCHITECTURE.md "Lock ordering"):
//
//   * Writers call AcquireExclusive(pages) exactly once with the page set
//     they *plan* to touch. The set is mapped to stripes, sorted, and
//     deduplicated before any latch is taken, so blocking writer-writer
//     waits always happen in globally sorted stripe order — no cycle can
//     form among writers.
//   * Any latch needed beyond the declared set (a sibling chosen during
//     the operation, LBU's parent discovered from the leaf page) must go
//     through TryExtendExclusive, which never blocks. Failure means the
//     caller gives up the arm, escalates, or releases everything and
//     restarts the descent.
//   * Exclusive *coupling* (the coupled insert descent) starts with the
//     single-page AcquireExclusive(page) — blocking, allowed only while
//     the set holds nothing — and grows strictly by TryExtendExclusive.
//     ReleaseExclusive(page) drops one hold so the descent can release
//     split-safe ancestors; exclusive holds are reference-counted because
//     a parent and child may collide onto one stripe.
//   * Readers latch-couple: AcquireShared may block only while the set
//     holds nothing else; every further shared latch must go through
//     TryAcquireShared (non-blocking). A reader therefore never waits
//     while holding, so it can never be an interior node of a wait cycle.
//
// Together: every blocking wait is either (a) issued while holding no
// page latch, or (b) part of one sorted exclusive acquisition. Both are
// cycle-free, so the table is deadlock-free by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/drain_gate.h"
#include "common/types.h"
#include "rtree/rtree.h"

namespace burtree {

/// Aggregate counters of latch-table traffic (relaxed atomics; exposed
/// for the benches and the coupling torture tests).
struct LatchTableStats {
  uint64_t exclusive_acquires = 0;  ///< blocking X acquisitions (sets+roots)
  uint64_t shared_acquires = 0;     ///< blocking S acquisitions (roots)
  uint64_t try_acquires = 0;        ///< try-latch attempts, either mode
  uint64_t try_failures = 0;        ///< try-latch collisions (restarts)
};

/// Striped reader/writer latch storage keyed by page id.
///
/// Thread-safety: fully thread-safe; the table itself is immutable after
/// construction and the per-stripe mutexes do the synchronization.
class LatchTable {
 public:
  /// 4096 stripes ≈ a few hundred KB of mutexes. Sized so that try-latch
  /// extensions (which escalate on collision) rarely hit a stripe some
  /// unrelated operation holds: with T threads each holding ~3 stripes,
  /// a random try-latch collides with probability ~3T/stripes — ~0.6%
  /// at 8 threads rather than ~9% with 256 stripes.
  static constexpr size_t kDefaultStripes = 4096;

  /// `stripes` is rounded up to a power of two (minimum 1).
  explicit LatchTable(size_t stripes = kDefaultStripes);

  LatchTable(const LatchTable&) = delete;
  LatchTable& operator=(const LatchTable&) = delete;

  size_t num_stripes() const { return stripes_.size(); }

  /// Stripe index serving `id` (exposed for tests and sorted acquisition).
  size_t StripeOf(PageId id) const;

  /// Stripes are writer-priority DrainGates, not plain shared_mutexes:
  /// coupled queries keep hot stripes (the root's above all)
  /// continuously S-latched, and glibc's reader preference would starve
  /// the coupled insert's blocking X acquisition on them indefinitely.
  DrainGate& stripe(size_t s) { return stripes_[s]->mu; }

  /// Blocking acquire+release of `id`'s stripe while holding nothing —
  /// the coupled descent's "wait for the contended stripe to drain, then
  /// restart" step. Never deadlocks: the caller holds no latch.
  /// Deliberately does not bump the stripe version: nothing mutates under
  /// the momentary hold, so optimistic readers must not restart for it.
  void WaitForStripe(PageId id);

  /// -- Optimistic version-validated reads ---------------------------------
  ///
  /// Every stripe carries a version stamp bumped once on each exclusive
  /// acquire and once on each exclusive release, so the stamp is odd
  /// exactly while a writer holds the stripe and differs across any
  /// write. The optimistic protocol (RTree::QueryOptimistic):
  ///
  ///   1. TryBeginSnapshot(page, &v) — momentary try-shared hold; under
  ///      it the caller copies the page bytes into a private buffer
  ///      (never torn: S excludes X, and v is necessarily even).
  ///   2. EndSnapshot(page) — drop the shared hold; from here the reader
  ///      holds no latch while it descends into the copied node.
  ///   3. ValidateVersion(page, v) — latch-free acquire-load; equality
  ///      proves no writer touched the stripe since step 1, i.e. the
  ///      links followed out of the snapshot were current the whole time.
  ///
  /// False restarts from stripe collisions are possible (strictly more
  /// invalidation, never less), which only costs a retry.

  /// Current version stamp of `page`'s stripe (acquire load).
  uint64_t ReadVersion(PageId page) const;

  /// True iff `page`'s stripe version still equals `version`.
  bool ValidateVersion(PageId page, uint64_t version) const;

  /// Non-blocking shared acquisition of `page`'s stripe paired with its
  /// version stamp. On success the caller must EndSnapshot(page) after
  /// copying; on failure (writer present) nothing is held. Counts
  /// nothing: a snapshot writes no table-wide line, and its caller
  /// reports its tries through AddTryCounts.
  bool TryBeginSnapshot(PageId page, uint64_t* version);

  /// Releases the shared hold taken by a successful TryBeginSnapshot.
  void EndSnapshot(PageId page);

  /// Adds a reader's locally counted snapshot tries and failures to
  /// LatchTableStats::try_acquires / try_failures.
  void AddTryCounts(uint64_t tries, uint64_t failures);

  LatchTableStats stats() const;

 private:
  friend class PageLatchSet;

  struct Stripe {
    DrainGate mu;
    /// Bumped by PageLatchSet once after every exclusive lock and once
    /// before every exclusive unlock — odd while X-held, different after
    /// any write. Shared holds never touch it.
    std::atomic<uint64_t> version{0};
  };
  std::atomic<uint64_t>& stripe_version(size_t s) { return stripes_[s]->version; }
  const std::atomic<uint64_t>& stripe_version(size_t s) const {
    return stripes_[s]->version;
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  size_t mask_ = 0;

  std::atomic<uint64_t> exclusive_acquires_{0};
  std::atomic<uint64_t> shared_acquires_{0};
  std::atomic<uint64_t> try_acquires_{0};
  std::atomic<uint64_t> try_failures_{0};
};

/// RAII owner of a set of latches from one LatchTable. Move-only; the
/// destructor releases everything still held. One PageLatchSet belongs to
/// one operation on one thread.
///
/// A set is either a *writer* set (AcquireExclusive / TryExtendExclusive
/// / ReleaseExclusive) or a *reader* set (AcquireShared / TryAcquireShared
/// / ReleaseShared); mixing modes in one set is a protocol violation and
/// asserts.
class PageLatchSet {
 public:
  explicit PageLatchSet(LatchTable* table) : table_(table) {}
  ~PageLatchSet() { ReleaseAll(); }

  PageLatchSet(const PageLatchSet&) = delete;
  PageLatchSet& operator=(const PageLatchSet&) = delete;

  /// Blocking exclusive acquisition of the whole planned page set, in
  /// sorted deduplicated stripe order. Must be the set's first
  /// acquisition (asserts if anything is already held).
  void AcquireExclusive(const std::vector<PageId>& pages);

  /// Blocking exclusive acquisition of a single page — the coupled
  /// descent's root step. Allowed only while the set holds nothing
  /// (asserts otherwise): a blocking wait with empty hands cannot be an
  /// interior node of a wait cycle.
  void AcquireExclusive(PageId page);

  /// True when `page`'s stripe is already held by this set (in either
  /// mode) — the page is safe to read/write under the set's protection.
  bool Covers(PageId page) const;

  /// Non-blocking exclusive acquisition of one more page. Returns true
  /// when the stripe is now (or already was) held exclusively — already
  /// held bumps the hold's reference count, so coupling release stays
  /// balanced when parent and child collide onto one stripe. Never
  /// blocks; a false return means the caller must escalate or restart.
  bool TryExtendExclusive(PageId page);

  /// Drops one exclusive hold on `page`'s stripe (the latch is released
  /// when the last reference goes) — the coupled descent's release of a
  /// split-safe ancestor.
  void ReleaseExclusive(PageId page);

  /// Blocking shared acquisition; allowed only while the set holds
  /// nothing (the coupling root). Asserts otherwise.
  void AcquireShared(PageId page);

  /// Non-blocking shared acquisition while other shared latches are
  /// held. A stripe already held shared is reference-counted.
  bool TryAcquireShared(PageId page);

  /// Drops one shared hold on `page`'s stripe (the latch is released
  /// when the last reference goes).
  void ReleaseShared(PageId page);

  /// Releases every latch still held. Idempotent.
  void ReleaseAll();

  size_t held_stripes() const { return held_.size(); }

 private:
  struct Held {
    size_t stripe;
    bool exclusive;
    int refs;
  };
  Held* Find(size_t stripe);
  const Held* Find(size_t stripe) const;

  LatchTable* table_;
  std::vector<Held> held_;  // small: a handful of stripes per operation
};

// -- RTree latch hooks over a LatchTable ------------------------------------
// The adapters ConcurrentIndex runs its coupled descents through.

/// TraversalLatchHooks over a reader PageLatchSet (the S-coupled query
/// descent, RTree::QueryCoupled).
class ReaderHooks final : public TraversalLatchHooks {
 public:
  explicit ReaderHooks(PageLatchSet* set) : set_(set) {}
  void AcquireShared(PageId page) override { set_->AcquireShared(page); }
  bool TryAcquireShared(PageId page) override {
    return set_->TryAcquireShared(page);
  }
  void ReleaseShared(PageId page) override { set_->ReleaseShared(page); }

 private:
  PageLatchSet* set_;
};

/// ExclusiveLatchHooks over a writer PageLatchSet for the coupled insert
/// descent (RTree::InsertCoupled); remembers the page whose stripe last
/// collided so a retry loop can wait for exactly that stripe (holding
/// nothing) and restart.
class CoupledWriterHooks final : public ExclusiveLatchHooks {
 public:
  explicit CoupledWriterHooks(PageLatchSet* set) : set_(set) {}
  void AcquireExclusive(PageId page) override {
    set_->AcquireExclusive(page);
  }
  bool TryAcquireExclusive(PageId page) override {
    if (set_->TryExtendExclusive(page)) return true;
    last_contended_ = page;
    return false;
  }
  void ReleaseExclusive(PageId page) override {
    set_->ReleaseExclusive(page);
  }
  PageId last_contended() const { return last_contended_; }

 private:
  PageLatchSet* set_;
  PageId last_contended_ = kInvalidPageId;
};

/// VersionLatchHooks over the table's per-stripe version stamps (the
/// optimistic snapshot descent, RTree::QueryOptimistic). Counts its
/// snapshot tries in plain members and adds them to the table's totals
/// once, on destruction, so a node visit writes no table-wide counter.
/// One instance serves one query attempt on one thread.
class OptimisticReaderHooks final : public VersionLatchHooks {
 public:
  explicit OptimisticReaderHooks(LatchTable* table) : table_(table) {}
  ~OptimisticReaderHooks() override {
    table_->AddTryCounts(tries_, failures_);
  }
  OptimisticReaderHooks(const OptimisticReaderHooks&) = delete;
  OptimisticReaderHooks& operator=(const OptimisticReaderHooks&) = delete;

  bool TryBeginSnapshot(PageId page, uint64_t* version) override {
    ++tries_;
    if (table_->TryBeginSnapshot(page, version)) return true;
    ++failures_;
    return false;
  }
  void EndSnapshot(PageId page) override { table_->EndSnapshot(page); }
  bool Validate(PageId page, uint64_t version) override {
    return table_->ValidateVersion(page, version);
  }

 private:
  LatchTable* table_;
  uint64_t tries_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace burtree
