// The main-memory summary structure of §3.2 (Figure 3):
//
//   1. a direct access table over the *internal* nodes of the R-tree —
//      per node: its own MBR, level, and child page ids — organized by
//      level, and
//   2. a bit vector over the leaf nodes indicating whether they are full.
//
// It is maintained through TreeObserver callbacks (MBR modifications and
// node splits, exactly the two triggers the paper identifies) and gives
// GBU zero-I/O access to the root MBR, any node's parent, parent MBRs for
// iExtendMBR, sibling lists, and the FindParent ascent of Algorithm 3.
//
// Thread-safe: the throughput experiment mutates it from many threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "rtree/observer.h"

namespace burtree {

/// Result of the FindParent ascent: the root→ancestor page-id path (ready
/// for RTree::InsertDescendingFrom) — empty when no ancestor within the
/// level threshold bounds the new location.
struct AncestorPath {
  std::vector<PageId> path_from_root;
  Level ancestor_level = 0;
};

class SummaryStructure : public TreeObserver {
 public:
  struct NodeInfo {
    Level level = 0;
    Rect mbr;
    PageId parent = kInvalidPageId;
    std::vector<PageId> children;
  };

  SummaryStructure() = default;

  // ---- Read API (zero I/O by construction) ----

  PageId root() const;
  Level root_level() const;
  Rect root_mbr() const;

  /// Own MBR of an internal node. Leaves are not in the table.
  std::optional<Rect> NodeMbr(PageId page) const;

  /// Parent of `node` (internal or leaf; kInvalidPageId for the root).
  PageId ParentOf(PageId node) const;

  /// True when the leaf has no free entry slot (the bit vector).
  bool LeafIsFull(PageId leaf) const;
  /// Leaves currently tracked by the bit vector.
  size_t leaf_count() const;

  /// Algorithm 3 / generalized ascent: starting at `node` (a leaf),
  /// ascend at most `max_levels` levels looking for the lowest ancestor
  /// whose MBR contains `target`. Returns the full root→ancestor path, or
  /// nullopt when no qualifying ancestor exists within the threshold.
  std::optional<AncestorPath> FindAncestorContaining(
      PageId node, const Point& target, uint32_t max_levels) const;

  /// Root→node page-id path derived from parent links (node included).
  std::vector<PageId> PathFromRoot(PageId node) const;

  /// Literal Algorithm 3 (FindParent): scans the direct access table one
  /// level at a time starting just above the leaves, matching entries
  /// whose child list contains the current node, returning the first
  /// ancestor whose MBR contains `target`. Semantically identical to
  /// FindAncestorContaining (which uses the maintained parent links for
  /// O(height) ascent); kept for fidelity and cross-checked in tests.
  std::optional<AncestorPath> FindParentScan(PageId node,
                                             const Point& target,
                                             uint32_t max_levels) const;

  /// Internal nodes at `level` whose MBR intersects `window` — the
  /// in-memory pruning step of summary-assisted queries. When
  /// level == root_level the result is just the root (if overlapping).
  std::vector<PageId> OverlappingAtLevel(const Rect& window,
                                         Level level) const;

  /// Summary-assisted query planning: descends the table from the root
  /// and returns the level-1 nodes (parents of leaves) overlapping
  /// `window`. Precondition: root_level() >= 1.
  std::vector<PageId> OverlappingLeafParents(const Rect& window) const;

  /// Epoch-stamped variant for the concurrent pruned-query plans: the
  /// plan and `*epoch` are taken atomically (both under the table's
  /// shared lock), so ValidateEpoch(epoch) after the scan proves no
  /// structural change (node create/free, link change, internal MBR
  /// adjustment, root change) invalidated the plan while it was used.
  /// Any plan/tree divergence implies such a change, and every one of
  /// them fires an observer callback under the page X latches involved —
  /// i.e. before a query's S acquisition of the affected pages could
  /// succeed — so an unchanged epoch makes the pruned scan equivalent to
  /// a full-level scan.
  std::vector<PageId> OverlappingLeafParents(const Rect& window,
                                             uint64_t* epoch) const;

  /// Current structural epoch (acquire load).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// True iff no structural change was published since `epoch`.
  bool ValidateEpoch(uint64_t epoch) const { return this->epoch() == epoch; }

  // ---- Size accounting (paper §3.2 claims: entry ≈ 20.4% of a node,
  //      table ≈ 0.16% of the tree) ----

  /// Bytes used by the direct access table (MBR + level + page id +
  /// child pointers per entry).
  size_t table_bytes() const;
  /// Bytes used by the leaf bit vector (1 bit per leaf, rounded up).
  size_t bitvector_bytes() const;
  size_t internal_node_count() const;

  // ---- TreeObserver ----

  void OnNodeCreated(PageId page, Level level) override;
  void OnNodeFreed(PageId page, Level level) override;
  void OnNodeMbrChanged(PageId page, Level level, const Rect& mbr) override;
  void OnChildLinked(PageId parent, PageId child) override;
  void OnChildUnlinked(PageId parent, PageId child) override;
  void OnLeafOccupancyChanged(PageId leaf, uint32_t count,
                              uint32_t capacity) override;
  void OnRootChanged(PageId new_root, Level new_level) override;

  /// Consistency probe for tests: table parent/child links are mutually
  /// consistent and every non-root internal node has a parent.
  bool SelfCheck() const;

 private:
  mutable std::shared_mutex mu_;
  /// Structural epoch: bumped (under mu_) by every mutation that can
  /// invalidate a pruned query plan. Leaf occupancy flips are excluded —
  /// they never change which level-1 nodes overlap a window.
  std::atomic<uint64_t> epoch_{0};
  std::unordered_map<PageId, NodeInfo> internal_;
  std::unordered_map<PageId, bool> leaf_full_;
  std::unordered_map<PageId, PageId> leaf_parent_;
  PageId root_ = kInvalidPageId;
  Level root_level_ = 0;
};

}  // namespace burtree
