// Disk-page R-tree (Guttman) with condense-tree re-insertion — "the
// original R-tree with re-insertions" the paper implements — plus the
// hooks the bottom-up update strategies need: observer notifications,
// path-parameterized insertion (for GBU's ascend-and-insert), and direct
// leaf manipulation helpers.
//
// MBR discipline (see DESIGN.md §4): every node header carries the node's
// own *covering* rect, which must contain the union of its entry rects but
// may be deliberately looser (leaf extension). A parent's routing entry
// must contain the child's covering rect. Inserts only ever expand
// covering rects; deletes and splits re-tighten them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "buffer/page_guard.h"
#include "common/options.h"
#include "common/status.h"
#include "rtree/node.h"
#include "rtree/observer.h"

namespace burtree {

/// Operation counters for experiments and tests (a plain snapshot;
/// RTree keeps the live counters as relaxed atomics so concurrent
/// coupled inserts can bump them without a data race).
struct RTreeStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t leaf_splits = 0;
  uint64_t internal_splits = 0;
  uint64_t underflow_condenses = 0;
  uint64_t reinserted_entries = 0;
  uint64_t forced_reinserts = 0;
  uint64_t root_grows = 0;
  uint64_t root_shrinks = 0;
};

/// Per-level aggregate shape used by the Section-4 cost model.
struct LevelShape {
  Level level = 0;
  uint64_t node_count = 0;
  double avg_width = 0.0;   ///< mean MBR extent along x
  double avg_height = 0.0;  ///< mean MBR extent along y
  double avg_fill = 0.0;    ///< mean entry count / capacity
  /// Mean per-node total pairwise intersection area among entries — the
  /// overlap that drives multi-path query descents (§2: "the more the
  /// overlap, the worse the branching behavior of a query").
  double avg_overlap = 0.0;
};

struct TreeShape {
  std::vector<LevelShape> levels;  ///< index 0 = leaf level
  uint64_t total_nodes = 0;
  uint64_t total_entries = 0;  ///< data entries
};

/// Shared-latch hooks for latch-coupled window queries (implemented by
/// the cc layer over its striped page-latch table).
///
/// Contract (mirrors PageLatchSet): AcquireShared may block, but is only
/// invoked while the traversal holds no other latch; TryAcquireShared is
/// invoked while a parent latch is held and must never block — a false
/// return makes the traversal release everything and retry, so a reader
/// can never sit inside a wait cycle.
class TraversalLatchHooks {
 public:
  virtual ~TraversalLatchHooks() = default;

  /// Blocking shared acquisition of `page` (coupling root).
  virtual void AcquireShared(PageId page) = 0;

  /// Non-blocking shared acquisition while a parent latch is held.
  virtual bool TryAcquireShared(PageId page) = 0;

  virtual void ReleaseShared(PageId page) = 0;
};

/// Version-validated read hooks for the optimistic query descent
/// (implemented by the cc layer over LatchTable's per-stripe version
/// stamps — see LatchTable's optimistic-protocol comment).
///
/// Contract: TryBeginSnapshot never blocks; on success the caller copies
/// the page bytes and must EndSnapshot before taking any other snapshot
/// (the traversal holds at most one momentary shared latch at a time, so
/// it can never sit inside a wait cycle). Validate is latch-free.
class VersionLatchHooks {
 public:
  virtual ~VersionLatchHooks() = default;

  /// Non-blocking shared acquisition of `page` paired with its version
  /// stamp; false when a writer holds it (caller backs off and retries).
  virtual bool TryBeginSnapshot(PageId page, uint64_t* version) = 0;

  /// Releases the hold of a successful TryBeginSnapshot.
  virtual void EndSnapshot(PageId page) = 0;

  /// True iff no writer touched `page` since the snapshot that returned
  /// `version`.
  virtual bool Validate(PageId page, uint64_t version) = 0;
};

/// Exclusive latch hooks for the latch-coupled insert descent (coupled
/// latch mode; implemented by the cc layer over its striped page-latch
/// table).
///
/// Contract (mirrors PageLatchSet's writer rules): AcquireExclusive may
/// block but is only invoked while the descent holds nothing — the root
/// step. Every further latch goes through TryAcquireExclusive, which must
/// never block; a false return makes InsertCoupled abort *before any
/// mutation* with Status::LatchContention so the caller can release
/// everything and restart the descent. ReleaseExclusive drops one hold
/// (reference-counted underneath: parent and child may share a stripe).
class ExclusiveLatchHooks {
 public:
  virtual ~ExclusiveLatchHooks() = default;

  /// Blocking exclusive acquisition of `page` (the descent root).
  virtual void AcquireExclusive(PageId page) = 0;

  /// Non-blocking exclusive acquisition while other latches are held.
  virtual bool TryAcquireExclusive(PageId page) = 0;

  virtual void ReleaseExclusive(PageId page) = 0;
};

/// In/out parameter of RTree::InsertCoupled enabling R*-style forced
/// re-insertion on the coupled path (see InsertCoupled's comment). The
/// caller re-inserts `evicted` itself because the re-inserts need fresh
/// descents (new latch scopes) and WAL pending-note tokens — both owned
/// by the cc layer, not the tree.
struct CoupledReinsert {
  bool enabled = false;
  std::vector<LeafEntry> evicted;  ///< filled when an eviction happened
};

class RTree {
 public:
  RTree(BufferPool* pool, const TreeOptions& options);

  /// Adopts an existing tree: `root`/`root_level` must name a valid root
  /// already present in the pool's page store (WAL crash recovery builds
  /// the store via WalManager::Replay, then hands the recovered root
  /// here). No page is allocated or touched.
  struct AdoptRoot {};
  RTree(BufferPool* pool, const TreeOptions& options, AdoptRoot, PageId root,
        Level root_level);

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // ---- Metadata ----

  /// Root page id / level. Plain loads (relaxed): stable in
  /// single-threaded use; on the concurrent coupled path the value is
  /// only *trusted* after latching the root's stripe and re-checking
  /// (validate-after-latch), since a concurrent root grow may publish a
  /// new root at any time.
  PageId root() const { return root_.load(std::memory_order_relaxed); }
  Level root_level() const {
    return root_level_.load(std::memory_order_relaxed);
  }
  /// Number of levels (a single-leaf tree has height 1).
  uint32_t height() const { return root_level() + 1; }
  const TreeOptions& options() const { return options_; }
  BufferPool* pool() const { return pool_; }
  RTreeStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// Subscribes structural-change observers (oid index, summary).
  /// Passing nullptr resets to a no-op observer.
  void set_observer(TreeObserver* obs);

  /// Replays the tree's current structure as observer events (creation,
  /// links, MBRs, occupancy, leaf entries, root) — bootstraps a summary
  /// structure or oid index attached after the tree was built. Reads
  /// every node.
  void ReplayStructureTo(TreeObserver* obs);
  /// The event sink for the *current thread*: the innermost active
  /// DeferredObserverScope's recording queue when one is open (the
  /// concurrent frontend brackets each op so observer application can
  /// run as one burst off the mutation path), else the subscribed
  /// observer. Never null — a shared no-op stands in when nothing is
  /// subscribed.
  TreeObserver* observer() const {
    TreeObserver* q = DeferredObserverScope::CurrentQueue();
    return q != nullptr ? q : observer_;
  }
  /// The subscribed observer itself, bypassing any deferral bracket:
  /// the target a DeferredObserverScope applies into.
  TreeObserver* subscribed_observer() const { return observer_; }

  /// Minimum entries per node (m) for the given node kind.
  uint32_t MinFill(bool leaf) const;
  uint32_t Capacity(bool leaf) const;

  /// Reads the root page and returns its covering MBR (costs I/O; GBU
  /// obtains the same rect from the summary structure at zero cost).
  Rect ReadRootMbr();

  // ---- Top-down operations ----

  /// Inserts a data entry, descending from the root (Guttman ChooseLeaf +
  /// quadratic split + AdjustTree).
  Status Insert(ObjectId oid, const Rect& rect);

  /// Top-down delete: FindLeaf from the root, remove, CondenseTree with
  /// re-insertion of orphaned entries.
  Status Delete(ObjectId oid, const Rect& rect);

  /// Window query; `cb` is invoked for every data entry intersecting
  /// `window`.
  using QueryCallback = std::function<void(ObjectId, const Rect&)>;
  Status Query(const Rect& window, const QueryCallback& cb);

  /// One attempt at a latch-coupled insert (coupled latch mode): descend
  /// from the root X-latch-coupling node pages through `hooks`, releasing
  /// every retained ancestor as soon as the freshly latched child is
  /// known *split-safe* (it has a free slot AND the routing entry already
  /// contains `rect`, so neither a promoted entry nor an MBR expansion
  /// can propagate above it). On reaching the leaf, the pages any split
  /// will need — one sibling per full node on the retained path, the
  /// children of splitting internal nodes when parent pointers are on,
  /// and a fresh root when the split chain reaches a full root — are
  /// allocated and try-latched *before* the first byte is mutated; any
  /// try-latch failure (descent or reservation) returns
  /// Status::LatchContention with the tree untouched, and the caller
  /// releases all latches and retries. Never takes any tree-wide latch.
  ///
  /// Forced re-insertion (R* overflow treatment) on this path goes
  /// through `reinsert`: when it is non-null with enabled=true and the
  /// chosen leaf is full with its parent still retained, the leaf is
  /// relieved by evicting its farthest entries (one atomic mutation —
  /// rewrite + cover tighten + parent routing update, all under the
  /// retained latches) instead of splitting; the evicted entries are
  /// returned in reinsert->evicted and MUST be re-inserted by the caller
  /// (each logged as a WAL pending note in the same record) while its
  /// reinsert visibility bracket is open. Null/disabled reinsert means
  /// overflow always splits (the pre-PR-7 behavior).
  Status InsertCoupled(ObjectId oid, const Rect& rect,
                       ExclusiveLatchHooks* hooks,
                       CoupledReinsert* reinsert = nullptr);

  /// One attempt at a fully latch-coupled window query (coupled latch
  /// mode): S-latch the root (blocking, holding nothing), then couple
  /// try-S latches down every overlapping branch, holding at most the
  /// current root-to-node path. Matches are buffered and emitted only on
  /// a complete consistent pass; any try-latch failure returns
  /// Status::LatchContention (nothing emitted) and the caller restarts.
  /// *Every* level is latched — in coupled mode internal nodes are
  /// mutated under page latches, not under a tree-wide latch, so
  /// latch-free upper levels would race concurrent splits. This is the
  /// fallback of the coupled read path once the optimistic descent's
  /// attempts starve. `hooks` must not be null.
  Status QueryCoupled(const Rect& window, const QueryCallback& cb,
                      TraversalLatchHooks* hooks);

  /// Optimistic version-validated window query (latch-free descent): each
  /// visited node is snapshotted into a private buffer under a momentary
  /// try-shared latch, the traversal descends through the *copy* holding
  /// no latch, and after a node's overlapping children complete, the
  /// node's version is re-validated — a mismatch discards that subtree's
  /// buffered matches and restarts the node. Matches are buffered and
  /// emitted only on a fully validated pass. Every snapshot failure or
  /// validation mismatch spends one unit of `restart_budget`; when it
  /// runs out the query returns Status::LatchContention (nothing
  /// emitted) and the caller falls back to the S-coupled path.
  ///
  /// Safety: the caller must exclude page frees for the duration (the cc
  /// layer holds its compound-SMO gate shared), so a stale child link
  /// always names a valid, formatted page — the validate step then
  /// rejects whatever was read through it.
  Status QueryOptimistic(const Rect& window, const QueryCallback& cb,
                         VersionLatchHooks* hooks, int restart_budget = 64);

  /// Optimistic scan of the subtree rooted at `page` (any level), same
  /// protocol/budget semantics as QueryOptimistic, whose recursive core
  /// it is; also used by the summary-pruned concurrent query plans.
  /// Snapshots `page`, recurses into overlapping children through the
  /// copy, then validates `page`'s version — a mismatch restarts this
  /// node with its local matches discarded. Matches append to `out` only
  /// when the whole subtree validated.
  Status QueryOptimisticSubtree(PageId page, const Rect& window,
                                VersionLatchHooks* hooks,
                                std::vector<LeafEntry>* out, int* budget);

  /// k-nearest-neighbor result entry.
  struct Neighbor {
    ObjectId oid = kInvalidObjectId;
    Rect rect;
    double distance = 0.0;
  };

  /// Branch-and-bound best-first k-NN (Hjaltason/Samet style): returns up
  /// to `k` data entries closest to `query`, ordered by distance. Reads
  /// only the nodes whose MBR distance beats the current k-th best.
  StatusOr<std::vector<Neighbor>> NearestNeighbors(const Point& query,
                                                   size_t k);

  // ---- Strategy-facing operations (engine-internal API) ----
  // These power LBU/GBU; they are public because the update strategies
  // live in a separate module, not because applications should call them.

  /// Standard insert whose ChooseSubtree descent starts at
  /// `path_from_root.back()` instead of the root (GBU's
  /// "Insert(ancestor, oid, newLocation)"). The caller supplies the page
  /// ids of the root→ancestor path (GBU derives them from the summary at
  /// zero I/O); they are fetched only if a split or MBR change propagates
  /// that far.
  Status InsertDescendingFrom(std::vector<PageId> path_from_root,
                              ObjectId oid, const Rect& rect);

  /// Removes `oid` from `leaf` WITHOUT condensing — callers must have
  /// verified the leaf will not underflow. Fires observer events and
  /// leaves parent routing entries untouched (covering rects may go
  /// loose, which the MBR discipline allows).
  Status RemoveFromLeafNoCondense(PageId leaf, ObjectId oid);

  /// Top-down path from the root to the leaf holding `oid` (the leaf is
  /// path.back()). Uses `hint_rect` to prune the descent. NotFound if the
  /// object is absent.
  StatusOr<std::vector<PageId>> FindLeafPath(ObjectId oid,
                                             const Rect& hint_rect);

  /// Delete driven by a known leaf (bottom-up strategies with an oid
  /// index): removes the entry, then condenses upward along
  /// `path_from_root` exactly like a top-down delete would.
  Status DeleteAtLeaf(const std::vector<PageId>& path_from_root,
                      ObjectId oid);

  // ---- Introspection ----

  /// Full structural validation: entry containment, level consistency,
  /// fill invariants, parent pointers (when enabled). Reads every node.
  /// `check_min_fill` is off for STR bulk-loaded trees, whose remainder
  /// nodes may legitimately be under-full.
  Status Validate(bool check_min_fill = true);

  /// Walks the tree collecting the per-level shape statistics consumed by
  /// the Section-4 cost model.
  TreeShape CollectShape();

  /// Total pages currently used by this tree (nodes only).
  uint64_t CountNodes();

 private:
  friend class BulkLoader;

  /// Live operation counters: relaxed atomics so concurrent coupled
  /// inserts (each holding only page latches) can bump them racelessly.
  struct AtomicTreeStats {
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> leaf_splits{0};
    std::atomic<uint64_t> internal_splits{0};
    std::atomic<uint64_t> underflow_condenses{0};
    std::atomic<uint64_t> reinserted_entries{0};
    std::atomic<uint64_t> forced_reinserts{0};
    std::atomic<uint64_t> root_grows{0};
    std::atomic<uint64_t> root_shrinks{0};

    RTreeStats Snapshot() const {
      RTreeStats s;
      s.inserts = inserts.load(std::memory_order_relaxed);
      s.deletes = deletes.load(std::memory_order_relaxed);
      s.leaf_splits = leaf_splits.load(std::memory_order_relaxed);
      s.internal_splits = internal_splits.load(std::memory_order_relaxed);
      s.underflow_condenses =
          underflow_condenses.load(std::memory_order_relaxed);
      s.reinserted_entries =
          reinserted_entries.load(std::memory_order_relaxed);
      s.forced_reinserts = forced_reinserts.load(std::memory_order_relaxed);
      s.root_grows = root_grows.load(std::memory_order_relaxed);
      s.root_shrinks = root_shrinks.load(std::memory_order_relaxed);
      return s;
    }
    void Reset() {
      inserts = 0;
      deletes = 0;
      leaf_splits = 0;
      internal_splits = 0;
      underflow_condenses = 0;
      reinserted_entries = 0;
      forced_reinserts = 0;
      root_grows = 0;
      root_shrinks = 0;
    }
  };

  struct PendingSplit {
    Rect original_mbr;      // tightened covering rect of the split node
    InternalEntry promoted; // entry for the newly created sibling
  };

  NodeView View(PageGuard& g) const {
    return NodeView(g.data(), options_.page_size, options_.parent_pointers);
  }

  /// Appends ChooseSubtree descent from path->back() down to target_level.
  Status DescendChooseSubtree(std::vector<PageId>* path, const Rect& rect,
                              Level target_level);

  /// Inserts (rect, payload) into path.back() (whose level matches the
  /// entry kind), splitting and propagating along `path` as needed.
  Status InsertEntryAlongPath(const std::vector<PageId>& path,
                              const Rect& rect, uint64_t payload);

  /// Splits `node` (full) absorbing the pending entry; returns the entry
  /// to promote and the node's tightened MBR.
  PendingSplit SplitNode(PageGuard& node_guard, const Rect& pending_rect,
                         uint64_t pending_payload);

  /// R*-style overflow treatment: evicts the entries farthest from the
  /// node's center (plus possibly the pending one) and re-inserts them
  /// from the root at the node's level. Called at most once per level
  /// per top-level operation.
  Status ForcedReinsertOverflow(const std::vector<PageId>& path, int i,
                                PageGuard& node_guard,
                                const Rect& pending_rect,
                                uint64_t pending_payload);

  /// Creates a new root over (old root, promoted).
  void GrowRoot(const Rect& old_root_mbr, const InternalEntry& promoted);

  /// Propagates a child MBR change upward: path[0..upto] are ancestors,
  /// child = path[upto + 1]. Expand-only when `expand_only`.
  void AdjustAncestors(const std::vector<PageId>& path, int upto,
                       PageId child, Rect child_mbr, bool expand_only);

  /// CondenseTree (Guttman D3): walk `path` bottom-up removing under-full
  /// nodes, collecting orphans, tightening MBRs; then shrink the root and
  /// re-insert orphans.
  Status CondenseTree(const std::vector<PageId>& path);

  /// Re-inserts an orphaned routing entry whose required node level
  /// exceeds what the (possibly shrunken) tree offers by dismantling the
  /// subtree into data entries.
  Status DismantleAndReinsert(PageId subtree, Level subtree_level);

  /// Sets child's parent pointer (when the option is on). Costs child
  /// page I/O — the LBU maintenance overhead the paper describes.
  void SetParentPointer(PageId child, PageId parent);

  void NotifyLeafOccupancy(PageId leaf, const NodeView& v);

  Status ValidateNode(PageId page, Level expected_level,
                      std::optional<Rect> parent_cover, PageId parent,
                      bool check_min_fill, uint64_t* data_entries);

  /// Recursive helper of QueryCoupled: `page` is already S-latched by
  /// the caller; children are try-S-latched while the parent latch is
  /// held and released after their subtree completes.
  Status QueryCoupledNode(PageId page, const Rect& window,
                          TraversalLatchHooks* hooks,
                          std::vector<LeafEntry>* out);

  /// Coupled-path forced re-insertion (see InsertCoupled): path.back()
  /// is the full leaf, every path element is retained/X-latched by the
  /// caller's hooks. Evicts the entries farthest from the leaf center
  /// into *evicted, inserts the pending entry, tightens the cover, and
  /// updates ancestor routing entries — one atomic mutation, no page
  /// allocation.
  Status CoupledReinsertOverflow(const std::vector<PageId>& path,
                                 const Rect& rect, ObjectId oid,
                                 std::vector<LeafEntry>* evicted);

  BufferPool* pool_;
  TreeOptions options_;
  TreeObserver* observer_ = nullptr;
  /// Atomic so coupled-mode descents can read the current root without a
  /// tree-wide latch; writers (GrowRoot / root shrink) publish while
  /// holding the old root's stripe or the compound-SMO drain gate.
  std::atomic<PageId> root_{kInvalidPageId};
  std::atomic<Level> root_level_{0};
  AtomicTreeStats stats_;

  // Forced-reinsertion bookkeeping for the current top-level operation
  // (guarded by the caller's exclusive latch in concurrent settings, like
  // every other structure modification).
  bool in_insert_op_ = false;
  std::vector<bool> levels_reinserted_;
};

}  // namespace burtree
