// IndexSystem: the assembled engine — page file, buffer pool, R-tree,
// secondary oid hash index, and summary structure, wired together through
// the tree-observer bus. Experiments construct one IndexSystem per
// strategy configuration.
#pragma once

#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/options.h"
#include "oid_index/hash_index.h"
#include "oid_index/memory_index.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "storage/wal/wal_manager.h"
#include "summary/summary.h"

namespace burtree {

struct IndexSystemOptions {
  TreeOptions tree;
  /// Tree buffer pool capacity in pages (0 = pass-through, the paper's
  /// "no buffer" setting). Experiments size this as a % of the DB.
  size_t buffer_pages = 0;
  /// LRU shard count for the tree buffer pool (1 = classic single latch).
  size_t buffer_shards = 1;
  /// Storage backend for the tree's page file (mem = the paper's counted
  /// in-memory disk; file = real pread/pwrite I/O — see docs/STORAGE.md).
  StorageOptions storage;
  /// Attach the disk-resident oid hash index (needed by LBU/GBU; TD runs
  /// without one, exactly as in the paper).
  bool enable_oid_index = false;
  /// Attach the main-memory summary structure (needed by GBU).
  bool enable_summary = false;
  /// Secondary-index configuration. Default mirrors the paper: the table
  /// is memory-resident; each lookup is charged the cost model's one
  /// disk read; maintenance is free (I/O accounting in docs/STORAGE.md).
  HashIndexOptions hash = HashIndexOptions::MemoryResident();
};

class IndexSystem {
 public:
  explicit IndexSystem(const IndexSystemOptions& options);

  /// Quiesces the WAL's checkpoints before members destruct: the
  /// committer's auto-checkpoint calls back into pool_, which dies
  /// before wal_ (see the member-order comment below).
  ~IndexSystem() {
    if (wal_ != nullptr) wal_->QuiesceCheckpoints();
  }

  RTree& tree() { return *tree_; }
  BufferPool& buffer() { return *pool_; }
  PageStore& file() { return *file_; }
  HashIndex* oid_index() { return oid_index_.get(); }
  SummaryStructure* summary() { return summary_.get(); }
  /// The tree store's write-ahead log; null unless storage.wal.enabled.
  WalManager* wal() const { return wal_.get(); }
  const IndexSystemOptions& options() const { return options_; }

  /// WAL checkpoint: makes the log durable, flushes + syncs every tree
  /// page, truncates the log. No-op without a WAL. Must not be called
  /// from inside a WalOpScope.
  Status Checkpoint() {
    return wal_ != nullptr ? wal_->Checkpoint() : Status::OK();
  }

  /// Convenience: objects are points in the unit square.
  static Rect PointRect(const Point& p) { return Rect::FromPoint(p); }

  Status Insert(ObjectId oid, const Point& pos) {
    return tree_->Insert(oid, PointRect(pos));
  }

  /// STR bulk load (extension; experiments default to insertion builds).
  Status BulkLoad(std::vector<LeafEntry> entries, double fill = 0.66);

  /// Flushes both buffer pools so deferred writes reach the I/O counters.
  Status FlushAll();

  /// Combined disk accesses of the tree file and the hash-index file —
  /// the paper's headline metric.
  uint64_t TotalIo() const;
  struct IoBreakdown {
    IoSnapshot tree;
    IoSnapshot hash;
    uint64_t total() const { return tree.total_io() + hash.total_io(); }
  };
  IoBreakdown SnapshotIo() const;

  /// Resizes the tree buffer pool to `fraction` of the current tree file
  /// size (the paper's "buffer = x% of database size" knob).
  void SetBufferFraction(double fraction);

 private:
  /// Forwards root changes into the WAL so recovery knows which page to
  /// adopt as the root (scoped ops note it on their record; unscoped
  /// construction paths append a standalone root record).
  class WalRootObserver : public TreeObserver {
   public:
    void set_wal(WalManager* wal) { wal_ = wal; }
    void OnRootChanged(PageId new_root, Level new_level) override {
      if (wal_ != nullptr) wal_->NoteRootChange(new_root, new_level);
    }

   private:
    WalManager* wal_ = nullptr;
  };

  IndexSystemOptions options_;
  // Destruction runs bottom-up through this order: the pool's destructor
  // flushes (needs wal_ alive), and the WAL's destructor releases
  // deferred frees into the store (needs file_ alive).
  std::unique_ptr<PageStore> file_;
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<RTree> tree_;
  std::unique_ptr<HashIndex> oid_index_;
  std::unique_ptr<SummaryStructure> summary_;
  WalRootObserver wal_root_observer_;
  CompositeObserver observer_;
};

}  // namespace burtree
