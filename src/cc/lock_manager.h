// Multi-granularity lock manager in the style of Dynamic Granular Locking
// for R-trees (Chakrabarti & Mehrotra [2], paper §3.2.2): S/X data locks
// plus IS/IX intention locks on enclosing granules, a standard
// compatibility matrix, FIFO-fair grants, and a wait timeout that aborts
// the request (callers acquire granules in sorted order, so they are
// deadlock-free; the timeout is the lost-lock safety net).
//
// Internally the manager is *striped*: granules hash onto a power-of-two
// array of buckets, each with its own mutex, condition variable, granule
// map, and stats — one Acquire touches exactly one bucket, so disjoint
// granules never contend on a shared mutex (the old single-mutex design
// serialized every lock call once the tree latch stopped being the
// bottleneck). A separate txn-striped table tracks which granules each
// transaction holds; the two layers never nest their mutexes, and a
// transaction's own bookkeeping is only mutated from its own thread.
//
// Deadlock freedom across buckets is the callers' deterministic
// acquisition order (see dgl.h): the root intention granule first — it
// can never conflict, IS/IX are mutually compatible — then data cells in
// ascending granule id, so all blocking waits happen in one global order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace burtree {

enum class LockMode : uint8_t { kIS = 0, kIX = 1, kS = 2, kX = 3 };

/// Classic hierarchical-locking compatibility matrix.
bool LockCompatible(LockMode held, LockMode requested);

const char* LockModeName(LockMode m);

struct LockManagerOptions {
  /// Wait timeout; exceeding it returns kAborted (lost-lock safety net).
  uint64_t timeout_ms = 5000;
  /// Lock-table buckets (rounded up to a power of two). Each bucket has
  /// its own mutex/cv/map; granules hash across them.
  size_t buckets = 64;
};

struct LockStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;
  uint64_t aborts = 0;  ///< requests that timed out waiting (kAborted)
};

class LockManager {
 public:
  explicit LockManager(const LockManagerOptions& options = {});

  /// Acquires `mode` on `granule` for transaction `txn` (the operation's
  /// timestamp), blocking until granted or until the wait times out
  /// (kAborted). Re-acquiring a mode the txn already holds on the
  /// granule is a no-op; holding a stronger mode satisfies a weaker
  /// request.
  Status Acquire(uint64_t txn, uint64_t granule, LockMode mode);

  /// Releases one lock. Unknown (txn, granule) pairs are ignored.
  void Release(uint64_t txn, uint64_t granule);

  /// Releases everything `txn` holds (end of operation / abort).
  void ReleaseAll(uint64_t txn);

  /// Locks currently held by `txn` (testing).
  size_t HeldCount(uint64_t txn) const;

  /// Aggregated across all buckets.
  LockStats stats() const;

  size_t bucket_count() const { return buckets_.size(); }
  /// Bucket index serving `granule` (exposed for the striping tests).
  size_t BucketOf(uint64_t granule) const;

 private:
  struct Holder {
    uint64_t txn;
    LockMode mode;
  };
  struct Granule {
    std::vector<Holder> holders;
  };
  struct Bucket {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, Granule> granules;
    LockStats stats;
  };
  /// Txn -> held granules, striped by txn id. Only the owning thread
  /// mutates a txn's entry (one operation per timestamp), but entries of
  /// different txns share a shard, hence the mutex.
  struct TxnShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<uint64_t>> held;
  };

  static bool ModeCovers(LockMode held, LockMode requested);

  bool CanGrantLocked(const Granule& g, uint64_t txn, LockMode mode) const;
  TxnShard& ShardOf(uint64_t txn) const;
  /// Removes txn's holds on `granule` inside its bucket and wakes
  /// waiters; does not touch the txn table.
  void ReleaseInBucket(uint64_t txn, uint64_t granule);

  LockManagerOptions options_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  size_t bucket_mask_ = 0;
  static constexpr size_t kTxnShards = 16;  // power of two
  mutable std::vector<std::unique_ptr<TxnShard>> txn_shards_;
};

}  // namespace burtree
