#include "update/lbu.h"

namespace burtree {

LocalizedBottomUpStrategy::LocalizedBottomUpStrategy(
    IndexSystem* system, const LbuOptions& options)
    : system_(system), options_(options) {
  BURTREE_CHECK(system_->tree().options().parent_pointers);
  BURTREE_CHECK(system_->oid_index() != nullptr);
}

StatusOr<UpdateResult> LocalizedBottomUpStrategy::Update(
    ObjectId oid, const Point& old_pos, const Point& new_pos) {
  RTree& tree = system_->tree();
  BufferPool* pool = tree.pool();
  TreeObserver* obs = tree.observer();
  const Rect old_rect = IndexSystem::PointRect(old_pos);
  const Rect new_rect = IndexSystem::PointRect(new_pos);

  auto record = [&](UpdatePath p) {
    RecordPath(p);
    return UpdateResult{p};
  };
  auto top_down = [&]() -> StatusOr<UpdateResult> {
    BURTREE_RETURN_IF_ERROR(tree.Delete(oid, old_rect));
    BURTREE_RETURN_IF_ERROR(tree.Insert(oid, new_rect));
    return record(UpdatePath::kTopDown);
  };

  // Locate the leaf via the secondary object-ID index (hash I/O charged).
  auto leaf_or = system_->oid_index()->Lookup(oid);
  if (!leaf_or.ok()) return leaf_or.status();
  const PageId leaf_id = leaf_or.value();

  PageGuard leaf_guard = PageGuard::Fetch(pool, leaf_id);
  NodeView leaf(leaf_guard.data(), tree.options().page_size,
                tree.options().parent_pointers);
  const int slot = leaf.FindOidSlot(oid);
  BURTREE_CHECK(slot >= 0);  // oid index desync would be a library bug

  // Case 1: the new location lies within the leaf MBR — update in place.
  if (leaf.mbr().Contains(new_pos)) {
    leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
    leaf_guard.MarkDirty();
    return record(UpdatePath::kInPlace);
  }

  // Case 2: enlarge the leaf MBR uniformly by epsilon, if the enlarged
  // rect stays within the parent MBR and bounds the new location.
  const PageId parent_id = leaf.parent();
  BURTREE_CHECK(parent_id != kInvalidPageId || leaf_id == tree.root());
  if (parent_id != kInvalidPageId) {
    PageGuard parent_guard = PageGuard::Fetch(pool, parent_id);
    NodeView parent(parent_guard.data(), tree.options().page_size,
                    tree.options().parent_pointers);
    const Rect embr = InflateRect(leaf.mbr(), options_.epsilon);
    if (parent.mbr().Contains(embr) && embr.Contains(new_pos)) {
      leaf.set_mbr(embr);
      leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
      leaf_guard.MarkDirty();
      const int pslot = parent.FindChildSlot(leaf_id);
      BURTREE_CHECK(pslot >= 0);
      parent.set_entry_rect(static_cast<uint32_t>(pslot), embr);
      parent_guard.MarkDirty();
      obs->OnNodeMbrChanged(leaf_id, 0, embr);
      return record(UpdatePath::kExtend);
    }

    // Case 3: deletion must not underflow the leaf, else go top-down.
    if (leaf.count() - 1 < tree.MinFill(/*leaf=*/true)) {
      leaf_guard.Release();
      parent_guard.Release();
      return top_down();
    }

    // Delete the old entry from the leaf.
    leaf.RemoveEntry(static_cast<uint32_t>(slot));
    leaf_guard.MarkDirty();
    obs->OnLeafEntryRemoved(oid, leaf_id);
    obs->OnLeafOccupancyChanged(leaf_id, leaf.count(), leaf.capacity());
    leaf_guard.Release();

    // Case 4: shift into a sibling whose MBR contains the new location.
    // LBU has no fullness bit vector, so each candidate sibling must be
    // read to learn whether it is full (the paper's extra-I/O drawback).
    for (uint32_t i = 0; i < parent.count(); ++i) {
      const InternalEntry e = parent.internal_entry(i);
      if (e.child == leaf_id || !e.rect.Contains(new_pos)) continue;
      PageGuard sib_guard = PageGuard::Fetch(pool, e.child);
      NodeView sib(sib_guard.data(), tree.options().page_size,
                   tree.options().parent_pointers);
      if (sib.full()) continue;
      sib.AppendLeafEntry(LeafEntry{new_rect, oid});
      sib_guard.MarkDirty();
      obs->OnLeafEntryAdded(oid, e.child);
      obs->OnLeafOccupancyChanged(e.child, sib.count(), sib.capacity());
      return record(UpdatePath::kSibling);
    }
    parent_guard.Release();
  } else {
    // Degenerate single-leaf tree: just go top-down.
    leaf_guard.Release();
    return top_down();
  }

  // Case 5: issue a standard R-tree insert at the root.
  BURTREE_RETURN_IF_ERROR(tree.Insert(oid, new_rect));
  return record(UpdatePath::kRootInsert);
}

UpdatePlan LocalizedBottomUpStrategy::PlanUpdate(ObjectId oid,
                                                 const Point& old_pos,
                                                 const Point& new_pos) {
  (void)old_pos;
  (void)new_pos;
  auto leaf_or = system_->oid_index()->Lookup(oid);
  if (!leaf_or.ok()) return UpdatePlan{};  // escalated path surfaces it
  UpdatePlan plan;
  plan.leaf_local = true;
  plan.leaf = leaf_or.value();
  // LBU keeps no fullness bit vector (the paper's stated drawback), so
  // the plan cannot promise split-safety without reading the leaf.
  plan.split_safe = false;
  return plan;
}

StatusOr<UpdateResult> LocalizedBottomUpStrategy::UpdateScoped(
    UpdateLatchScope& scope, const UpdatePlan& plan, ObjectId oid,
    const Point& old_pos, const Point& new_pos) {
  (void)old_pos;
  RTree& tree = system_->tree();
  BufferPool* pool = tree.pool();
  TreeObserver* obs = tree.observer();
  const Rect new_rect = IndexSystem::PointRect(new_pos);
  const PageId leaf_id = plan.leaf;
  BURTREE_CHECK(scope.Covers(leaf_id));

  auto record = [&](UpdatePath p) {
    RecordPath(p);
    return UpdateResult{p};
  };

  PageGuard leaf_guard = PageGuard::Fetch(pool, leaf_id);
  NodeView leaf(leaf_guard.data(), tree.options().page_size,
                tree.options().parent_pointers);
  const int slot = leaf.FindOidSlot(oid);
  if (slot < 0) {
    // The object left this leaf between planning and latching (another
    // update relocated it): escalate.
    return Status::LatchContention("object moved after planning");
  }

  // Case 1: in-place — touches only the latched leaf.
  if (leaf.mbr().Contains(new_pos)) {
    leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
    leaf_guard.MarkDirty();
    return record(UpdatePath::kInPlace);
  }

  // The parent id lives on the leaf page; it was not in the plan, so it
  // must be try-latched (blocking here could deadlock against another
  // writer's sorted acquisition).
  const PageId parent_id = leaf.parent();
  if (parent_id == kInvalidPageId || !scope.TryExtend(parent_id)) {
    return Status::LatchContention("parent latch unavailable");
  }
  PageGuard parent_guard = PageGuard::Fetch(pool, parent_id);
  NodeView parent(parent_guard.data(), tree.options().page_size,
                  tree.options().parent_pointers);

  // Case 2: epsilon inflation bounded by the parent MBR.
  const Rect embr = InflateRect(leaf.mbr(), options_.epsilon);
  if (parent.mbr().Contains(embr) && embr.Contains(new_pos)) {
    leaf.set_mbr(embr);
    leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
    leaf_guard.MarkDirty();
    const int pslot = parent.FindChildSlot(leaf_id);
    BURTREE_CHECK(pslot >= 0);
    parent.set_entry_rect(static_cast<uint32_t>(pslot), embr);
    parent_guard.MarkDirty();
    obs->OnNodeMbrChanged(leaf_id, 0, embr);
    return record(UpdatePath::kExtend);
  }

  // Cases 3-5 remove the entry; underflow and the root-insert fallback
  // are structure modifications — escalate before mutating anything.
  if (leaf.count() - 1 < tree.MinFill(/*leaf=*/true)) {
    return Status::LatchContention("leaf would underflow");
  }

  // Case 4, probe-before-remove: find and latch a destination sibling
  // first so the shift either happens entirely under latches or not at
  // all. Candidates whose latch is contended are skipped (best effort).
  for (uint32_t i = 0; i < parent.count(); ++i) {
    const InternalEntry e = parent.internal_entry(i);
    if (e.child == leaf_id || !e.rect.Contains(new_pos)) continue;
    if (!scope.TryExtend(e.child)) continue;
    PageGuard sib_guard = PageGuard::Fetch(pool, e.child);
    NodeView sib(sib_guard.data(), tree.options().page_size,
                 tree.options().parent_pointers);
    if (sib.full()) continue;
    leaf.RemoveEntry(static_cast<uint32_t>(slot));
    leaf_guard.MarkDirty();
    obs->OnLeafEntryRemoved(oid, leaf_id);
    obs->OnLeafOccupancyChanged(leaf_id, leaf.count(), leaf.capacity());
    sib.AppendLeafEntry(LeafEntry{new_rect, oid});
    sib_guard.MarkDirty();
    obs->OnLeafEntryAdded(oid, e.child);
    obs->OnLeafOccupancyChanged(e.child, sib.count(), sib.capacity());
    return record(UpdatePath::kSibling);
  }

  // Case 5 (insert from the root) needs the whole descent path.
  return Status::LatchContention("no latchable sibling");
}

}  // namespace burtree
