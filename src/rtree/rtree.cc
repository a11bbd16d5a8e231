#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <thread>

#include "rtree/split.h"

namespace burtree {

namespace {
/// Shared no-op observer so call sites never need null checks.
TreeObserver* NoopObserver() {
  static TreeObserver noop;
  return &noop;
}

/// Per-thread context of an in-flight coupled insert. While set, the
/// split machinery consumes pre-allocated (and pre-latched) page ids
/// instead of allocating, skips forced re-insertion, and leaves the
/// shared forced-reinsert bookkeeping untouched — the three things that
/// would otherwise race or escape the latched path.
struct CoupledInsertCtx {
  const std::vector<PageId>* prealloc = nullptr;
  size_t next = 0;
};
thread_local CoupledInsertCtx* t_coupled_ctx = nullptr;

/// New node page: pre-reserved id under a coupled insert (stripe already
/// latched by the descent), fresh allocation otherwise.
PageGuard AllocNodePage(BufferPool* pool) {
  if (t_coupled_ctx != nullptr) {
    BURTREE_CHECK(t_coupled_ctx->next < t_coupled_ctx->prealloc->size());
    PageGuard g = PageGuard::Fetch(
        pool, (*t_coupled_ctx->prealloc)[t_coupled_ctx->next++]);
    g.MarkDirty();
    return g;
  }
  return PageGuard::New(pool);
}
}  // namespace

RTree::RTree(BufferPool* pool, const TreeOptions& options)
    : pool_(pool), options_(options), observer_(NoopObserver()) {
  PageGuard g = PageGuard::New(pool_);
  NodeView v = View(g);
  v.Format(/*level=*/0);
  root_ = g.id();
  root_level_ = 0;
}

RTree::RTree(BufferPool* pool, const TreeOptions& options, AdoptRoot,
             PageId root, Level root_level)
    : pool_(pool), options_(options), observer_(NoopObserver()) {
  root_ = root;
  root_level_ = root_level;
}

uint32_t RTree::Capacity(bool leaf) const {
  return NodeView::CapacityFor(options_.page_size, options_.parent_pointers,
                               leaf);
}

uint32_t RTree::MinFill(bool leaf) const {
  const uint32_t cap = Capacity(leaf);
  uint32_t m = static_cast<uint32_t>(
      std::floor(cap * options_.min_fill_fraction));
  m = std::max<uint32_t>(1, std::min(m, cap / 2));
  return m;
}

Rect RTree::ReadRootMbr() {
  PageGuard g = PageGuard::Fetch(pool_, root());
  return View(g).mbr();
}

void RTree::NotifyLeafOccupancy(PageId leaf, const NodeView& v) {
  observer()->OnLeafOccupancyChanged(leaf, v.count(), v.capacity());
}

void RTree::SetParentPointer(PageId child, PageId parent) {
  if (!options_.parent_pointers) return;
  PageGuard g = PageGuard::Fetch(pool_, child);
  NodeView v = View(g);
  if (v.parent() != parent) {
    v.set_parent(parent);
    g.MarkDirty();
  }
}

void RTree::set_observer(TreeObserver* obs) {
  observer_ = obs != nullptr ? obs : NoopObserver();
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

Status RTree::DescendChooseSubtree(std::vector<PageId>* path,
                                   const Rect& rect, Level target_level) {
  while (true) {
    PageGuard g = PageGuard::Fetch(pool_, path->back());
    NodeView v = View(g);
    if (v.level() == target_level) return Status::OK();
    if (v.level() < target_level) {
      return Status::InvalidArgument("descent below target level");
    }
    path->push_back(v.internal_entry(v.ChooseSubtree(rect)).child);
  }
}

Status RTree::Insert(ObjectId oid, const Rect& rect) {
  std::vector<PageId> path{root()};
  BURTREE_RETURN_IF_ERROR(DescendChooseSubtree(&path, rect, /*target=*/0));
  BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(path, rect, oid));
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status RTree::InsertDescendingFrom(std::vector<PageId> path_from_root,
                                   ObjectId oid, const Rect& rect) {
  BURTREE_CHECK(!path_from_root.empty());
  BURTREE_DCHECK(path_from_root.front() == root());
  BURTREE_RETURN_IF_ERROR(
      DescendChooseSubtree(&path_from_root, rect, /*target=*/0));
  BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(path_from_root, rect, oid));
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

namespace {
/// Clears the per-operation forced-reinsert level flags when the
/// outermost InsertEntryAlongPath call unwinds. Inactive (touching
/// nothing) under a coupled insert: that path never force-reinserts, and
/// the flags are shared state only the serialized paths may mutate.
struct InsertOpScope {
  InsertOpScope(bool active, bool* flag, std::vector<bool>* levels)
      : flag_(flag), levels_(levels), top_(active && !*flag) {
    if (top_) {
      *flag_ = true;
      levels_->assign(levels_->size(), false);
    }
  }
  ~InsertOpScope() {
    if (top_) *flag_ = false;
  }
  bool* flag_;
  std::vector<bool>* levels_;
  bool top_;
};
}  // namespace

Status RTree::InsertEntryAlongPath(const std::vector<PageId>& path,
                                   const Rect& rect, uint64_t payload) {
  InsertOpScope op_scope(t_coupled_ctx == nullptr, &in_insert_op_,
                         &levels_reinserted_);
  std::optional<PendingSplit> pending;
  Rect cur_rect = rect;
  uint64_t cur_payload = payload;

  for (int i = static_cast<int>(path.size()) - 1; i >= 0; --i) {
    PageGuard g = PageGuard::Fetch(pool_, path[i]);
    NodeView v = View(g);

    // When a child below was split, the refreshed routing entry for the
    // original child (mbr_a) can extend beyond this node's old cover if
    // the incoming entry landed in group A — the cover must absorb it.
    Rect refreshed_rect = Rect::Empty();

    if (pending.has_value()) {
      // A child below was split: refresh its routing entry, then insert
      // the promoted sibling entry at this level.
      const int slot = v.FindChildSlot(path[i + 1]);
      BURTREE_CHECK(slot >= 0);
      v.set_entry_rect(static_cast<uint32_t>(slot), pending->original_mbr);
      refreshed_rect = pending->original_mbr;
      g.MarkDirty();
      cur_rect = pending->promoted.rect;
      cur_payload = pending->promoted.child;
      pending.reset();
    }

    if (v.count() < v.capacity()) {
      if (v.is_leaf()) {
        v.AppendLeafEntry(LeafEntry{cur_rect, cur_payload});
        observer()->OnLeafEntryAdded(cur_payload, path[i]);
        NotifyLeafOccupancy(path[i], v);
      } else {
        const PageId child = static_cast<PageId>(cur_payload);
        v.AppendInternalEntry(InternalEntry{cur_rect, child});
        observer()->OnChildLinked(path[i], child);
        SetParentPointer(child, path[i]);
      }
      const Rect new_cover =
          v.mbr().UnionWith(cur_rect).UnionWith(refreshed_rect);
      if (!(new_cover == v.mbr())) {
        v.set_mbr(new_cover);
        observer()->OnNodeMbrChanged(path[i], v.level(), new_cover);
      }
      g.MarkDirty();
      g.Release();
      AdjustAncestors(path, i - 1, path[i], new_cover,
                      /*expand_only=*/true);
      return Status::OK();
    }

    // Overflow. R*-style forced re-insertion takes precedence over a
    // split, once per level per operation, never at the root — and never
    // under a coupled insert, whose latch set covers only the retained
    // path plus reserved split pages (re-insertion re-enters from the
    // root and re-tightens released ancestors).
    const Level lvl = v.level();
    if (options_.forced_reinsert && i > 0 && t_coupled_ctx == nullptr) {
      if (lvl >= levels_reinserted_.size()) {
        levels_reinserted_.resize(root_level() + 1, false);
      }
      if (lvl < levels_reinserted_.size() && !levels_reinserted_[lvl]) {
        levels_reinserted_[lvl] = true;
        return ForcedReinsertOverflow(path, i, g, cur_rect, cur_payload);
      }
    }
    pending = SplitNode(g, cur_rect, cur_payload);
  }

  // The split propagated past the top of the supplied path; that can only
  // be the root.
  BURTREE_CHECK(pending.has_value());
  BURTREE_CHECK(path.front() == root());
  GrowRoot(pending->original_mbr, pending->promoted);
  return Status::OK();
}

RTree::PendingSplit RTree::SplitNode(PageGuard& node_guard,
                                     const Rect& pending_rect,
                                     uint64_t pending_payload) {
  NodeView v = View(node_guard);
  const PageId node_id = node_guard.id();
  const Level level = v.level();
  const bool leaf = v.is_leaf();

  std::vector<SplitEntry> all;
  all.reserve(v.count() + 1);
  for (uint32_t i = 0; i < v.count(); ++i) {
    if (leaf) {
      const LeafEntry e = v.leaf_entry(i);
      all.push_back(SplitEntry{e.rect, e.oid});
    } else {
      const InternalEntry e = v.internal_entry(i);
      all.push_back(SplitEntry{e.rect, e.child});
    }
  }
  all.push_back(SplitEntry{pending_rect, pending_payload});
  const uint32_t pending_index = static_cast<uint32_t>(all.size() - 1);

  const SplitResult sr = SplitEntries(all, MinFill(leaf), options_.split);

  PageGuard new_guard = AllocNodePage(pool_);
  NodeView nv = View(new_guard);
  nv.Format(level);
  const PageId new_id = new_guard.id();
  observer()->OnNodeCreated(new_id, level);

  // Rewrite the original node with group A.
  v.set_count(0);
  Rect mbr_a = Rect::Empty();
  bool pending_in_a = false;
  for (uint32_t idx : sr.group_a) {
    if (leaf) {
      v.AppendLeafEntry(LeafEntry{all[idx].rect, all[idx].payload});
    } else {
      v.AppendInternalEntry(
          InternalEntry{all[idx].rect, static_cast<PageId>(all[idx].payload)});
    }
    mbr_a.ExpandToInclude(all[idx].rect);
    if (idx == pending_index) pending_in_a = true;
  }
  v.set_mbr(mbr_a);  // splits re-tighten covering rects
  node_guard.MarkDirty();

  Rect mbr_b = Rect::Empty();
  for (uint32_t idx : sr.group_b) {
    if (leaf) {
      nv.AppendLeafEntry(LeafEntry{all[idx].rect, all[idx].payload});
    } else {
      nv.AppendInternalEntry(
          InternalEntry{all[idx].rect, static_cast<PageId>(all[idx].payload)});
    }
    mbr_b.ExpandToInclude(all[idx].rect);
  }
  nv.set_mbr(mbr_b);

  // Observer notifications + parent-pointer maintenance.
  if (leaf) {
    for (uint32_t idx : sr.group_b) {
      const ObjectId oid = all[idx].payload;
      if (idx != pending_index) observer()->OnLeafEntryRemoved(oid, node_id);
      observer()->OnLeafEntryAdded(oid, new_id);
    }
    if (pending_in_a) {
      observer()->OnLeafEntryAdded(pending_payload, node_id);
    }
    NotifyLeafOccupancy(node_id, v);
    NotifyLeafOccupancy(new_id, nv);
    stats_.leaf_splits.fetch_add(1, std::memory_order_relaxed);
  } else {
    for (uint32_t idx : sr.group_b) {
      const PageId child = static_cast<PageId>(all[idx].payload);
      if (idx != pending_index) observer()->OnChildUnlinked(node_id, child);
      observer()->OnChildLinked(new_id, child);
      SetParentPointer(child, new_id);
    }
    if (pending_in_a) {
      const PageId child = static_cast<PageId>(pending_payload);
      observer()->OnChildLinked(node_id, child);
      SetParentPointer(child, node_id);
    }
    stats_.internal_splits.fetch_add(1, std::memory_order_relaxed);
  }
  observer()->OnNodeMbrChanged(node_id, level, mbr_a);
  observer()->OnNodeMbrChanged(new_id, level, mbr_b);

  return PendingSplit{mbr_a, InternalEntry{mbr_b, new_id}};
}

Status RTree::ForcedReinsertOverflow(const std::vector<PageId>& path, int i,
                                     PageGuard& node_guard,
                                     const Rect& pending_rect,
                                     uint64_t pending_payload) {
  NodeView v = View(node_guard);
  const PageId node_id = node_guard.id();
  const Level level = v.level();
  const bool leaf = v.is_leaf();

  std::vector<SplitEntry> all;
  all.reserve(v.count() + 1);
  for (uint32_t k = 0; k < v.count(); ++k) {
    if (leaf) {
      const LeafEntry e = v.leaf_entry(k);
      all.push_back(SplitEntry{e.rect, e.oid});
    } else {
      const InternalEntry e = v.internal_entry(k);
      all.push_back(SplitEntry{e.rect, e.child});
    }
  }
  const uint32_t pending_index = static_cast<uint32_t>(all.size());
  all.push_back(SplitEntry{pending_rect, pending_payload});

  // Evict the entries whose centers lie farthest from the node's center
  // (R* sorts by center distance and removes the far `p` fraction).
  const Point center = v.mbr().Center();
  std::vector<uint32_t> order(all.size());
  for (uint32_t k = 0; k < all.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return all[a].rect.Center().DistanceTo(center) >
           all[b].rect.Center().DistanceTo(center);
  });
  uint32_t evict = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::lround(options_.reinsert_fraction * v.capacity())));
  const uint32_t min_keep = MinFill(leaf);
  if (all.size() - evict < min_keep) {
    evict = static_cast<uint32_t>(all.size()) - min_keep;
  }
  std::vector<SplitEntry> removed;
  std::vector<bool> is_removed(all.size(), false);
  for (uint32_t k = 0; k < evict; ++k) {
    removed.push_back(all[order[k]]);
    is_removed[order[k]] = true;
  }

  // Rewrite the node with the kept entries and a tightened cover.
  v.set_count(0);
  Rect new_cover = Rect::Empty();
  bool pending_kept = false;
  for (uint32_t k = 0; k < all.size(); ++k) {
    if (is_removed[k]) continue;
    if (leaf) {
      v.AppendLeafEntry(LeafEntry{all[k].rect, all[k].payload});
    } else {
      v.AppendInternalEntry(
          InternalEntry{all[k].rect, static_cast<PageId>(all[k].payload)});
    }
    new_cover.ExpandToInclude(all[k].rect);
    if (k == pending_index) pending_kept = true;
  }
  v.set_mbr(new_cover);
  node_guard.MarkDirty();

  if (leaf) {
    for (uint32_t k = 0; k < all.size(); ++k) {
      if (!is_removed[k] || k == pending_index) continue;
      observer()->OnLeafEntryRemoved(all[k].payload, node_id);
    }
    if (pending_kept) {
      observer()->OnLeafEntryAdded(pending_payload, node_id);
    }
    NotifyLeafOccupancy(node_id, v);
  } else {
    for (uint32_t k = 0; k < all.size(); ++k) {
      if (!is_removed[k] || k == pending_index) continue;
      observer()->OnChildUnlinked(node_id, static_cast<PageId>(all[k].payload));
    }
    if (pending_kept) {
      const PageId child = static_cast<PageId>(pending_payload);
      observer()->OnChildLinked(node_id, child);
      SetParentPointer(child, node_id);
    }
  }
  observer()->OnNodeMbrChanged(node_id, level, new_cover);
  node_guard.Release();

  // Tighten routing entries up the path (exact mode recomputes covers).
  AdjustAncestors(path, i - 1, path[i], new_cover, /*expand_only=*/false);

  // Re-insert the evicted entries from the root at this node's level.
  // The level flag set by the caller turns any further overflow at this
  // level into a split, so the recursion terminates.
  for (const SplitEntry& e : removed) {
    std::vector<PageId> p{root()};
    BURTREE_RETURN_IF_ERROR(DescendChooseSubtree(&p, e.rect, level));
    BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(p, e.rect, e.payload));
    stats_.forced_reinserts.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void RTree::GrowRoot(const Rect& old_root_mbr,
                     const InternalEntry& promoted) {
  const PageId old_root = root();
  PageGuard g = AllocNodePage(pool_);
  NodeView v = View(g);
  const Level new_level = root_level() + 1;
  v.Format(new_level);
  v.AppendInternalEntry(InternalEntry{old_root_mbr, old_root});
  v.AppendInternalEntry(promoted);
  const Rect cover = old_root_mbr.UnionWith(promoted.rect);
  v.set_mbr(cover);

  const PageId new_root = g.id();
  observer()->OnNodeCreated(new_root, new_level);
  observer()->OnChildLinked(new_root, old_root);
  observer()->OnChildLinked(new_root, promoted.child);
  observer()->OnNodeMbrChanged(new_root, new_level, cover);
  SetParentPointer(old_root, new_root);
  SetParentPointer(promoted.child, new_root);

  // Publish the new root last: concurrent coupled descents that latched
  // the old root re-check root() after latching and restart on mismatch.
  root_.store(new_root, std::memory_order_relaxed);
  root_level_.store(new_level, std::memory_order_relaxed);
  stats_.root_grows.fetch_add(1, std::memory_order_relaxed);
  observer()->OnRootChanged(new_root, new_level);
}

void RTree::AdjustAncestors(const std::vector<PageId>& path, int upto,
                            PageId child, Rect child_mbr, bool expand_only) {
  for (int j = upto; j >= 0; --j) {
    PageGuard g = PageGuard::Fetch(pool_, path[j]);
    NodeView v = View(g);
    const int slot = v.FindChildSlot(child);
    BURTREE_CHECK(slot >= 0);
    const Rect er = v.entry_rect(static_cast<uint32_t>(slot));
    const Rect ner = expand_only ? er.UnionWith(child_mbr) : child_mbr;
    const bool entry_changed = !(ner == er);
    if (entry_changed) {
      v.set_entry_rect(static_cast<uint32_t>(slot), ner);
      g.MarkDirty();
    }
    const Rect cover = v.mbr();
    const Rect ncover =
        expand_only ? cover.UnionWith(child_mbr) : v.ComputeMbr();
    const bool cover_changed = !(ncover == cover);
    if (cover_changed) {
      v.set_mbr(ncover);
      g.MarkDirty();
      observer()->OnNodeMbrChanged(path[j], v.level(), ncover);
    }
    if (!entry_changed && !cover_changed) return;  // ancestors unaffected
    child = path[j];
    child_mbr = ncover;
  }
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

namespace {
struct FindFrame {
  PageId page;
  uint32_t next_child = 0;
};
}  // namespace

StatusOr<std::vector<PageId>> RTree::FindLeafPath(ObjectId oid,
                                                  const Rect& hint_rect) {
  // Iterative DFS with explicit backtracking: overlap may force multiple
  // partial root-to-leaf probes, exactly the top-down cost the paper
  // describes.
  std::vector<PageId> path{root()};
  std::vector<uint32_t> cursor{0};

  while (!path.empty()) {
    PageGuard g = PageGuard::Fetch(pool_, path.back());
    NodeView v = View(g);
    if (v.is_leaf()) {
      if (v.FindOidSlot(oid) >= 0) return path;
      // backtrack
      g.Release();
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    bool descended = false;
    for (uint32_t i = cursor.back(); i < v.count(); ++i) {
      const InternalEntry e = v.internal_entry(i);
      if (e.rect.Contains(hint_rect)) {
        cursor.back() = i + 1;
        path.push_back(e.child);
        cursor.push_back(0);
        descended = true;
        break;
      }
    }
    if (!descended) {
      g.Release();
      path.pop_back();
      cursor.pop_back();
    }
  }
  return Status::NotFound("object not in tree");
}

Status RTree::Delete(ObjectId oid, const Rect& rect) {
  auto path_or = FindLeafPath(oid, rect);
  if (!path_or.ok()) return path_or.status();
  return DeleteAtLeaf(path_or.value(), oid);
}

Status RTree::DeleteAtLeaf(const std::vector<PageId>& path_from_root,
                           ObjectId oid) {
  BURTREE_CHECK(!path_from_root.empty());
  const PageId leaf = path_from_root.back();
  {
    PageGuard g = PageGuard::Fetch(pool_, leaf);
    NodeView v = View(g);
    BURTREE_CHECK(v.is_leaf());
    const int slot = v.FindOidSlot(oid);
    if (slot < 0) return Status::NotFound("oid not in leaf");
    v.RemoveEntry(static_cast<uint32_t>(slot));
    g.MarkDirty();
    observer()->OnLeafEntryRemoved(oid, leaf);
    NotifyLeafOccupancy(leaf, v);
  }
  BURTREE_RETURN_IF_ERROR(CondenseTree(path_from_root));
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status RTree::RemoveFromLeafNoCondense(PageId leaf, ObjectId oid) {
  PageGuard g = PageGuard::Fetch(pool_, leaf);
  NodeView v = View(g);
  BURTREE_CHECK(v.is_leaf());
  const int slot = v.FindOidSlot(oid);
  if (slot < 0) return Status::NotFound("oid not in leaf");
  v.RemoveEntry(static_cast<uint32_t>(slot));
  g.MarkDirty();
  observer()->OnLeafEntryRemoved(oid, leaf);
  NotifyLeafOccupancy(leaf, v);
  return Status::OK();
}

Status RTree::CondenseTree(const std::vector<PageId>& path) {
  struct Orphan {
    Level node_level;
    std::vector<SplitEntry> entries;
  };
  std::vector<Orphan> orphans;

  for (int i = static_cast<int>(path.size()) - 1; i > 0; --i) {
    const PageId node_id = path[i];
    const PageId parent_id = path[i - 1];
    PageGuard g = PageGuard::Fetch(pool_, node_id);
    NodeView v = View(g);
    const bool leaf = v.is_leaf();

    if (v.count() < MinFill(leaf) && options_.reinsert_on_underflow) {
      // Eliminate the node; stash its entries for re-insertion.
      Orphan o{v.level(), {}};
      o.entries.reserve(v.count());
      for (uint32_t k = 0; k < v.count(); ++k) {
        if (leaf) {
          const LeafEntry e = v.leaf_entry(k);
          o.entries.push_back(SplitEntry{e.rect, e.oid});
          observer()->OnLeafEntryRemoved(e.oid, node_id);
        } else {
          const InternalEntry e = v.internal_entry(k);
          o.entries.push_back(SplitEntry{e.rect, e.child});
          observer()->OnChildUnlinked(node_id, e.child);
        }
      }
      orphans.push_back(std::move(o));

      {
        PageGuard pg = PageGuard::Fetch(pool_, parent_id);
        NodeView pv = View(pg);
        const int slot = pv.FindChildSlot(node_id);
        BURTREE_CHECK(slot >= 0);
        pv.RemoveEntry(static_cast<uint32_t>(slot));
        pg.MarkDirty();
        observer()->OnChildUnlinked(parent_id, node_id);
        const Rect tight = pv.ComputeMbr();
        if (!(tight == pv.mbr())) {
          pv.set_mbr(tight);
          observer()->OnNodeMbrChanged(parent_id, pv.level(), tight);
        }
      }
      observer()->OnNodeFreed(node_id, v.level());
      g.Release();
      BURTREE_RETURN_IF_ERROR(pool_->DeletePage(node_id));
      stats_.underflow_condenses.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Keep the node; tighten its covering rect and the parent's routing
      // entry (top-down deletes re-tighten; deliberate bottom-up looseness
      // never reaches this code path).
      const Rect tight = v.ComputeMbr();
      if (!(tight == v.mbr())) {
        v.set_mbr(tight);
        g.MarkDirty();
        observer()->OnNodeMbrChanged(node_id, v.level(), tight);
      }
      g.Release();
      PageGuard pg = PageGuard::Fetch(pool_, parent_id);
      NodeView pv = View(pg);
      const int slot = pv.FindChildSlot(node_id);
      BURTREE_CHECK(slot >= 0);
      if (!(pv.entry_rect(static_cast<uint32_t>(slot)) == tight)) {
        pv.set_entry_rect(static_cast<uint32_t>(slot), tight);
        pg.MarkDirty();
      }
    }
  }

  // Tighten the root's own cover.
  {
    PageGuard g = PageGuard::Fetch(pool_, root());
    NodeView v = View(g);
    const Rect tight = v.ComputeMbr();
    if (!(tight == v.mbr())) {
      v.set_mbr(tight);
      g.MarkDirty();
      observer()->OnNodeMbrChanged(root(), v.level(), tight);
    }
  }

  // Shrink the root while it is an internal node with a single child.
  while (true) {
    PageGuard g = PageGuard::Fetch(pool_, root());
    NodeView v = View(g);
    if (v.is_leaf() || v.count() != 1) break;
    const PageId child = v.internal_entry(0).child;
    const PageId old_root = root();
    const Level old_level = root_level();
    g.Release();
    observer()->OnChildUnlinked(old_root, child);
    observer()->OnNodeFreed(old_root, old_level);
    BURTREE_RETURN_IF_ERROR(pool_->DeletePage(old_root));
    root_.store(child, std::memory_order_relaxed);
    root_level_.store(old_level - 1, std::memory_order_relaxed);
    SetParentPointer(child, kInvalidPageId);
    stats_.root_shrinks.fetch_add(1, std::memory_order_relaxed);
    observer()->OnRootChanged(root(), root_level());
  }

  // Re-insert orphaned entries at their original levels.
  for (const Orphan& o : orphans) {
    for (const SplitEntry& e : o.entries) {
      if (o.node_level == 0) {
        std::vector<PageId> p{root()};
        BURTREE_RETURN_IF_ERROR(DescendChooseSubtree(&p, e.rect, 0));
        BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(p, e.rect, e.payload));
        stats_.reinserted_entries.fetch_add(1, std::memory_order_relaxed);
      } else if (root_level() < o.node_level) {
        // The tree shrank below the orphan's home level: dismantle the
        // orphaned subtree into data entries.
        BURTREE_RETURN_IF_ERROR(DismantleAndReinsert(
            static_cast<PageId>(e.payload), o.node_level - 1));
      } else {
        std::vector<PageId> p{root()};
        BURTREE_RETURN_IF_ERROR(
            DescendChooseSubtree(&p, e.rect, o.node_level));
        BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(p, e.rect, e.payload));
        stats_.reinserted_entries.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

Status RTree::DismantleAndReinsert(PageId subtree, Level subtree_level) {
  std::vector<LeafEntry> data;
  std::vector<std::pair<PageId, Level>> stack{{subtree, subtree_level}};
  while (!stack.empty()) {
    auto [page, level] = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(pool_, page);
    NodeView v = View(g);
    BURTREE_CHECK(v.level() == level);
    if (v.is_leaf()) {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const LeafEntry e = v.leaf_entry(i);
        data.push_back(e);
        observer()->OnLeafEntryRemoved(e.oid, page);
      }
    } else {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const InternalEntry e = v.internal_entry(i);
        observer()->OnChildUnlinked(page, e.child);
        stack.push_back({e.child, level - 1});
      }
    }
    observer()->OnNodeFreed(page, level);
    g.Release();
    BURTREE_RETURN_IF_ERROR(pool_->DeletePage(page));
  }
  for (const LeafEntry& e : data) {
    std::vector<PageId> p{root()};
    BURTREE_RETURN_IF_ERROR(DescendChooseSubtree(&p, e.rect, 0));
    BURTREE_RETURN_IF_ERROR(InsertEntryAlongPath(p, e.rect, e.oid));
    stats_.reinserted_entries.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

StatusOr<std::vector<RTree::Neighbor>> RTree::NearestNeighbors(
    const Point& query, size_t k) {
  if (k == 0) return std::vector<Neighbor>{};

  struct NodeRef {
    double dist;
    PageId page;
    bool operator>(const NodeRef& o) const { return dist > o.dist; }
  };
  std::priority_queue<NodeRef, std::vector<NodeRef>, std::greater<>>
      frontier;
  frontier.push(NodeRef{0.0, root()});

  // Max-heap of the current best k, keyed by distance.
  auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(worse)>
      best(worse);

  while (!frontier.empty()) {
    const NodeRef top = frontier.top();
    frontier.pop();
    if (best.size() == k && top.dist > best.top().distance) break;
    PageGuard g = PageGuard::Fetch(pool_, top.page);
    NodeView v = View(g);
    if (v.is_leaf()) {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const LeafEntry e = v.leaf_entry(i);
        const double d = e.rect.MinDistanceTo(query);
        if (best.size() < k) {
          best.push(Neighbor{e.oid, e.rect, d});
        } else if (d < best.top().distance) {
          best.pop();
          best.push(Neighbor{e.oid, e.rect, d});
        }
      }
    } else {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const InternalEntry e = v.internal_entry(i);
        const double d = e.rect.MinDistanceTo(query);
        if (best.size() < k || d <= best.top().distance) {
          frontier.push(NodeRef{d, e.child});
        }
      }
    }
  }

  std::vector<Neighbor> out(best.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

Status RTree::Query(const Rect& window, const QueryCallback& cb) {
  std::vector<PageId> stack{root()};
  while (!stack.empty()) {
    const PageId page = stack.back();
    stack.pop_back();
    PageGuard g = PageGuard::Fetch(pool_, page);
    NodeView v = View(g);
    if (v.is_leaf()) {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const LeafEntry e = v.leaf_entry(i);
        if (e.rect.Intersects(window)) cb(e.oid, e.rect);
      }
    } else {
      for (uint32_t i = 0; i < v.count(); ++i) {
        const InternalEntry e = v.internal_entry(i);
        if (e.rect.Intersects(window)) stack.push_back(e.child);
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Coupled latch mode (no tree-wide latch at all)
// ---------------------------------------------------------------------------

Status RTree::InsertCoupled(ObjectId oid, const Rect& rect,
                            ExclusiveLatchHooks* hooks,
                            CoupledReinsert* reinsert) {
  BURTREE_CHECK(hooks != nullptr);
  BURTREE_CHECK(t_coupled_ctx == nullptr);  // no nesting

  // Root step: the only blocking acquisition, issued while holding
  // nothing, then validated — a concurrent grow may have published a new
  // root between the load and the latch.
  const PageId r = root();
  hooks->AcquireExclusive(r);
  if (root() != r) {
    hooks->ReleaseExclusive(r);
    return Status::LatchContention("root changed during latch");
  }

  // Descend, X-latch-coupling. A freshly latched child is *split-safe*
  // when it has a free slot AND its routing entry already contains the
  // new rect: no promoted entry and no MBR growth can then propagate
  // above it, so every retained ancestor is released. Each node is
  // fetched exactly once; fullness is remembered for the reservation.
  struct Retained {
    PageId page;
    bool full;
    bool leaf;
  };
  std::vector<Retained> retained;
  {
    PageId cur = r;
    PageGuard g = PageGuard::Fetch(pool_, cur);
    NodeView v = View(g);
    while (true) {
      retained.push_back(Retained{cur, v.full(), v.is_leaf()});
      if (v.is_leaf()) break;
      const InternalEntry chosen = v.internal_entry(v.ChooseSubtree(rect));
      g.Release();
      if (!hooks->TryAcquireExclusive(chosen.child)) {
        return Status::LatchContention("descent latch contended");
      }
      g = PageGuard::Fetch(pool_, chosen.child);
      v = View(g);
      if (!v.full() && chosen.rect.Contains(rect)) {
        for (const Retained& a : retained) hooks->ReleaseExclusive(a.page);
        retained.clear();
      }
      cur = chosen.child;
    }
  }

  // Coupled forced re-insertion: a full leaf whose parent is still
  // retained (a full child is never split-safe, so the parent latch was
  // kept) is relieved by evicting its farthest entries instead of
  // splitting — no page allocation, no promoted entry, one atomic
  // mutation under the already-held latches. The evicted entries return
  // to the caller, which re-inserts them in fresh descents (with
  // reinsert disabled there, so the recursion is one level deep). A
  // root leaf (retained.size() == 1) still splits: eviction cannot
  // relieve a tree that needs to grow.
  if (reinsert != nullptr && reinsert->enabled && retained.back().full &&
      retained.size() >= 2) {
    std::vector<PageId> path;
    path.reserve(retained.size());
    for (const Retained& a : retained) path.push_back(a.page);
    const Status st = CoupledReinsertOverflow(path, rect, oid,
                                              &reinsert->evicted);
    if (st.ok()) stats_.inserts.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  // Reservation, still pre-mutation: the maximal suffix of full retained
  // nodes is exactly the split chain (the leaf overflows, each full
  // ancestor absorbs a promoted entry by splitting in turn). Allocate
  // one sibling per splitting node — plus a fresh root when the chain
  // consumes the whole path, which can only happen at the real root: a
  // non-root retained top was latched under the split-safe release rule
  // and is therefore not full. Every reserved page is try-latched so the
  // mutation below never needs a latch it does not already hold.
  size_t first_split = retained.size();
  while (first_split > 0 && retained[first_split - 1].full) --first_split;
  const bool grows_root = first_split == 0;
  if (grows_root) BURTREE_CHECK(retained.front().page == r && r == root());

  std::vector<PageId> prealloc;
  auto abort_reservation = [&](const char* what) {
    for (PageId p : prealloc) BURTREE_CHECK(pool_->DeletePage(p).ok());
    return Status::LatchContention(what);
  };
  for (size_t i = retained.size(); i-- > first_split;) {
    PageId sibling;
    {
      PageGuard ng = PageGuard::New(pool_);
      sibling = ng.id();
    }
    if (!hooks->TryAcquireExclusive(sibling)) {
      BURTREE_CHECK(pool_->DeletePage(sibling).ok());
      return abort_reservation("sibling stripe contended");
    }
    prealloc.push_back(sibling);
    if (!retained[i].leaf && options_.parent_pointers) {
      // The split rewrites the parent pointer of every child that moves
      // to the sibling; which half moves is the split algorithm's choice,
      // so reserve all of them.
      PageGuard pg = PageGuard::Fetch(pool_, retained[i].page);
      NodeView pv = View(pg);
      for (uint32_t k = 0; k < pv.count(); ++k) {
        if (!hooks->TryAcquireExclusive(pv.internal_entry(k).child)) {
          return abort_reservation("child reparent stripe contended");
        }
      }
    }
  }
  if (grows_root) {
    PageId new_root;
    {
      PageGuard ng = PageGuard::New(pool_);
      new_root = ng.id();
    }
    if (!hooks->TryAcquireExclusive(new_root)) {
      BURTREE_CHECK(pool_->DeletePage(new_root).ok());
      return abort_reservation("new-root stripe contended");
    }
    prealloc.push_back(new_root);
  }

  // Mutation: the stock insert machinery over the retained path. Every
  // page it touches — the path, the reserved siblings (consumed by
  // SplitNode / GrowRoot through the thread-local context), reparented
  // children — is latched; no further acquisition can happen.
  std::vector<PageId> path;
  path.reserve(retained.size());
  for (const Retained& a : retained) path.push_back(a.page);
  CoupledInsertCtx ctx{&prealloc, 0};
  t_coupled_ctx = &ctx;
  Status st = InsertEntryAlongPath(path, rect, oid);
  t_coupled_ctx = nullptr;
  BURTREE_CHECK(!st.ok() || ctx.next == prealloc.size());
  if (st.ok()) stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status RTree::CoupledReinsertOverflow(const std::vector<PageId>& path,
                                      const Rect& rect, ObjectId oid,
                                      std::vector<LeafEntry>* evicted) {
  const PageId leaf_id = path.back();
  PageGuard g = PageGuard::Fetch(pool_, leaf_id);
  NodeView v = View(g);
  BURTREE_CHECK(v.is_leaf() && v.full());

  // R* ordering: evict the entries whose centers lie farthest from the
  // leaf's center. The pending entry is excluded from eviction so the
  // insert itself completes in this mutation.
  const Point center = v.mbr().Center();
  std::vector<uint32_t> order(v.count());
  for (uint32_t k = 0; k < v.count(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return v.entry_rect(a).Center().DistanceTo(center) >
           v.entry_rect(b).Center().DistanceTo(center);
  });
  uint32_t evict = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::lround(options_.reinsert_fraction * v.capacity())));
  const uint32_t min_keep = MinFill(/*leaf=*/true);
  // After evicting `evict` and adding the pending entry the leaf holds
  // count - evict + 1 entries; keep that at or above min fill.
  if (v.count() + 1 - evict < min_keep) {
    evict = v.count() + 1 - min_keep;
  }
  BURTREE_CHECK(evict >= 1 && evict <= v.count());

  std::vector<LeafEntry> kept;
  kept.reserve(v.count() - evict);
  for (uint32_t k = 0; k < evict; ++k) {
    evicted->push_back(v.leaf_entry(order[k]));
  }
  for (uint32_t k = evict; k < order.size(); ++k) {
    kept.push_back(v.leaf_entry(order[k]));
  }

  // Rewrite the leaf with the kept entries plus the pending one and a
  // tightened cover.
  v.set_count(0);
  Rect new_cover = Rect::Empty();
  for (const LeafEntry& e : kept) {
    v.AppendLeafEntry(e);
    new_cover.ExpandToInclude(e.rect);
  }
  v.AppendLeafEntry(LeafEntry{rect, oid});
  new_cover.ExpandToInclude(rect);
  v.set_mbr(new_cover);
  g.MarkDirty();

  for (const LeafEntry& e : *evicted) {
    observer()->OnLeafEntryRemoved(e.oid, leaf_id);
  }
  observer()->OnLeafEntryAdded(oid, leaf_id);
  NotifyLeafOccupancy(leaf_id, v);
  observer()->OnNodeMbrChanged(leaf_id, /*level=*/0, new_cover);
  g.Release();

  // Tighten routing entries up the retained (all-latched) path. Above
  // path[0] nothing changes: the caller's split-safe release rule only
  // dropped ancestors whose routing entries already contained the new
  // rect, and eviction only shrinks the leaf cover — a loose routing
  // entry above the retained top is allowed by the MBR discipline.
  AdjustAncestors(path, static_cast<int>(path.size()) - 2, leaf_id,
                  new_cover, /*expand_only=*/false);

  stats_.forced_reinserts.fetch_add(evict, std::memory_order_relaxed);
  return Status::OK();
}

Status RTree::QueryCoupledNode(PageId page, const Rect& window,
                               TraversalLatchHooks* hooks,
                               std::vector<LeafEntry>* out) {
  PageGuard g = PageGuard::Fetch(pool_, page);
  NodeView v = View(g);
  if (v.is_leaf()) {
    for (uint32_t i = 0; i < v.count(); ++i) {
      const LeafEntry e = v.leaf_entry(i);
      if (e.rect.Intersects(window)) out->push_back(e);
    }
    return Status::OK();
  }
  for (uint32_t i = 0; i < v.count(); ++i) {
    const InternalEntry e = v.internal_entry(i);
    if (!e.rect.Intersects(window)) continue;
    // Couple: the child is try-latched while this node's latch is held,
    // so a split cannot move entries between the link read and the child
    // read. Never blocks while holding — contention restarts the query.
    if (!hooks->TryAcquireShared(e.child)) {
      return Status::LatchContention("query descent contended");
    }
    const Status st = QueryCoupledNode(e.child, window, hooks, out);
    hooks->ReleaseShared(e.child);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status RTree::QueryCoupled(const Rect& window, const QueryCallback& cb,
                           TraversalLatchHooks* hooks) {
  BURTREE_CHECK(hooks != nullptr);
  const PageId r = root();
  hooks->AcquireShared(r);
  if (root() != r) {
    hooks->ReleaseShared(r);
    return Status::LatchContention("root changed during latch");
  }
  std::vector<LeafEntry> matches;
  const Status st = QueryCoupledNode(r, window, hooks, &matches);
  hooks->ReleaseShared(r);
  BURTREE_RETURN_IF_ERROR(st);  // nothing emitted: the retry starts clean
  if (cb) {
    for (const LeafEntry& e : matches) cb(e.oid, e.rect);
  }
  return Status::OK();
}

Status RTree::QueryOptimisticSubtree(PageId page, const Rect& window,
                                     VersionLatchHooks* hooks,
                                     std::vector<LeafEntry>* out,
                                     int* budget) {
  // Per-frame private copy of the node: the snapshot is taken under a
  // momentary try-shared stripe hold (so it is never torn and needs no
  // byte-level atomics — TSan-clean), then the descent walks the copy
  // holding nothing.
  std::vector<uint8_t> buf(options_.page_size);
  while (true) {
    if (*budget <= 0) {
      return Status::LatchContention("optimistic restart budget exhausted");
    }
    uint64_t ver = 0;
    if (!hooks->TryBeginSnapshot(page, &ver)) {
      --*budget;
      std::this_thread::yield();
      continue;
    }
    {
      PageGuard g = PageGuard::Fetch(pool_, page);
      std::memcpy(buf.data(), g.data(), options_.page_size);
    }
    hooks->EndSnapshot(page);

    NodeView v(buf.data(), options_.page_size, options_.parent_pointers);
    if (v.is_leaf()) {
      // The copy was taken under a shared hold, so it is internally
      // consistent; whether the *link* that led here was current is the
      // parent's validate step, not ours.
      for (uint32_t i = 0; i < v.count(); ++i) {
        const LeafEntry e = v.leaf_entry(i);
        if (e.rect.Intersects(window)) out->push_back(e);
      }
      return Status::OK();
    }

    std::vector<LeafEntry> local;
    Status st = Status::OK();
    for (uint32_t i = 0; i < v.count(); ++i) {
      const InternalEntry e = v.internal_entry(i);
      if (!e.rect.Intersects(window)) continue;
      st = QueryOptimisticSubtree(e.child, window, hooks, &local, budget);
      if (!st.ok()) return st;  // budget exhausted: unwind the whole query
    }
    // Validate after the subtree completed: equality proves no writer
    // touched this node since the snapshot, i.e. every child link
    // followed above was current throughout. A mismatch discards the
    // subtree's local matches and restarts this node only.
    if (!hooks->Validate(page, ver)) {
      --*budget;
      continue;
    }
    out->insert(out->end(), local.begin(), local.end());
    return Status::OK();
  }
}

Status RTree::QueryOptimistic(const Rect& window, const QueryCallback& cb,
                              VersionLatchHooks* hooks, int restart_budget) {
  BURTREE_CHECK(hooks != nullptr);
  int budget = restart_budget;
  while (true) {
    if (budget <= 0) {
      return Status::LatchContention("optimistic query starved");
    }
    const PageId r = root();
    std::vector<LeafEntry> matches;
    BURTREE_RETURN_IF_ERROR(
        QueryOptimisticSubtree(r, window, hooks, &matches, &budget));
    // Validate-after-scan analogue of InsertCoupled's validate-after-
    // latch: a root grow mid-descent means the scan of the old root's
    // subtree may have missed the sibling the split produced. (The old
    // root's own validate fails too — its split X-latched it — so this
    // re-check is a cheap second line of defense.)
    if (root() != r) {
      --budget;
      continue;
    }
    if (cb) {
      for (const LeafEntry& e : matches) cb(e.oid, e.rect);
    }
    return Status::OK();
  }
}

}  // namespace burtree
