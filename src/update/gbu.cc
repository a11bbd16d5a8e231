#include "update/gbu.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace burtree {

GeneralizedBottomUpStrategy::GeneralizedBottomUpStrategy(
    IndexSystem* system, const GbuOptions& options)
    : system_(system), options_(options) {
  BURTREE_CHECK(system_->oid_index() != nullptr);
  BURTREE_CHECK(system_->summary() != nullptr);
}

bool GeneralizedBottomUpStrategy::TryExtend(PageGuard& leaf_guard,
                                            NodeView& leaf, int slot,
                                            ObjectId oid,
                                            const Point& new_pos,
                                            UpdateLatchScope* scope) {
  (void)oid;
  RTree& tree = system_->tree();
  SummaryStructure* summary = system_->summary();
  const PageId leaf_id = leaf_guard.id();

  // Parent MBR comes from the direct access table: zero I/O (§3.2).
  const PageId parent_id = summary->ParentOf(leaf_id);
  if (parent_id == kInvalidPageId) return false;
  // Scoped (coupled-mode) update: the parent was declared in the plan and
  // latched up front; a mismatch means the plan went stale — give up the
  // arm.
  if (scope != nullptr && !scope->Covers(parent_id)) return false;
  const auto parent_mbr = summary->NodeMbr(parent_id);
  if (!parent_mbr.has_value()) return false;

  Rect imbr;
  if (options_.directional_extension) {
    // iExtendMBR (Algorithm 4): grow only towards the movement, capped by
    // epsilon and the parent MBR.
    imbr = ExtendMbrDirectional(leaf.mbr(), new_pos, options_.epsilon,
                                *parent_mbr);
  } else {
    // Ablation: Kwon-style uniform inflation, clipped to the parent.
    Rect r = InflateRect(leaf.mbr(), options_.epsilon);
    imbr = r.IntersectionWith(*parent_mbr);
  }
  if (!imbr.Contains(new_pos)) return false;

  leaf.set_mbr(imbr);
  leaf.set_entry_rect(static_cast<uint32_t>(slot),
                      IndexSystem::PointRect(new_pos));
  leaf_guard.MarkDirty();
  tree.observer()->OnNodeMbrChanged(leaf_id, 0, imbr);

  // Refresh the parent's routing entry so queries see the grown leaf
  // (costs the "1 R parent" of the cost model; the write is typically
  // absorbed by the buffer — see DESIGN.md).
  PageGuard parent_guard = PageGuard::Fetch(tree.pool(), parent_id);
  NodeView parent(parent_guard.data(), tree.options().page_size,
                  tree.options().parent_pointers);
  const int pslot = parent.FindChildSlot(leaf_id);
  BURTREE_CHECK(pslot >= 0);
  parent.set_entry_rect(static_cast<uint32_t>(pslot), imbr);
  parent_guard.MarkDirty();
  return true;
}

bool GeneralizedBottomUpStrategy::TrySiblingShift(PageGuard& leaf_guard,
                                                  NodeView& leaf,
                                                  ObjectId oid,
                                                  const Point& new_pos,
                                                  UpdateLatchScope* scope) {
  RTree& tree = system_->tree();
  SummaryStructure* summary = system_->summary();
  const PageId leaf_id = leaf_guard.id();

  // Shifting removes the entry; never underflow the source leaf.
  if (leaf.count() <= tree.MinFill(/*leaf=*/true)) return false;

  const PageId parent_id = summary->ParentOf(leaf_id);
  if (parent_id == kInvalidPageId) return false;
  if (scope != nullptr && !scope->Covers(parent_id)) return false;

  // Read the parent page for sibling routing MBRs (1 R); the bit vector
  // filters full siblings with no further I/O (§3.2.1 optimization 4).
  PageGuard parent_guard = PageGuard::Fetch(tree.pool(), parent_id);
  NodeView parent(parent_guard.data(), tree.options().page_size,
                  tree.options().parent_pointers);

  // Candidates ordered by routing-rect area (the paper picks the
  // smallest); with a latch scope, a contended candidate is skipped and
  // the next-best tried instead of waiting.
  std::vector<std::pair<double, uint32_t>> candidates;
  for (uint32_t i = 0; i < parent.count(); ++i) {
    const InternalEntry e = parent.internal_entry(i);
    if (e.child == leaf_id || !e.rect.Contains(new_pos)) continue;
    if (summary->LeafIsFull(e.child)) continue;
    candidates.emplace_back(e.rect.Area(), i);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  for (const auto& [area, idx] : candidates) {
    (void)area;
    const InternalEntry chosen = parent.internal_entry(idx);
    if (scope != nullptr && !scope->TryExtend(chosen.child)) continue;
    PageGuard sib_guard = PageGuard::Fetch(tree.pool(), chosen.child);
    NodeView sib(sib_guard.data(), tree.options().page_size,
                 tree.options().parent_pointers);
    if (scope != nullptr) {
      // The fullness bit was read without the sibling latch; re-check
      // now that the page can no longer change underneath us.
      if (sib.full()) continue;
    } else {
      BURTREE_CHECK(!sib.full());  // bit vector guarantees a free slot
    }

    DoSiblingShift(leaf_guard, leaf, parent_guard, parent, sib_guard, sib,
                   chosen, oid, new_pos);
    return true;
  }
  return false;
}

void GeneralizedBottomUpStrategy::DoSiblingShift(
    PageGuard& leaf_guard, NodeView& leaf, PageGuard& parent_guard,
    NodeView& parent, PageGuard& sib_guard, NodeView& sib,
    const InternalEntry& chosen, ObjectId oid, const Point& new_pos) {
  RTree& tree = system_->tree();
  TreeObserver* obs = tree.observer();
  const PageId leaf_id = leaf_guard.id();

  // Move the updated object.
  const int slot = leaf.FindOidSlot(oid);
  BURTREE_CHECK(slot >= 0);
  leaf.RemoveEntry(static_cast<uint32_t>(slot));
  obs->OnLeafEntryRemoved(oid, leaf_id);
  const Rect new_rect = IndexSystem::PointRect(new_pos);
  sib.AppendLeafEntry(LeafEntry{new_rect, oid});
  sib.set_mbr(sib.mbr().UnionWith(new_rect));
  obs->OnLeafEntryAdded(oid, chosen.child);

  // Piggyback cohabitants that already lie inside the sibling's routing
  // rect — redistributes objects between the two leaves to reduce overlap
  // (§3.2.1 optimization 4).
  if (options_.piggyback) {
    uint32_t i = 0;
    while (i < leaf.count() && !sib.full() &&
           leaf.count() > tree.MinFill(true)) {
      const LeafEntry e = leaf.leaf_entry(i);
      if (chosen.rect.Contains(e.rect)) {
        leaf.RemoveEntry(i);  // swap-removal: re-examine slot i
        obs->OnLeafEntryRemoved(e.oid, leaf_id);
        sib.AppendLeafEntry(e);
        sib.set_mbr(sib.mbr().UnionWith(e.rect));
        obs->OnLeafEntryAdded(e.oid, chosen.child);
      } else {
        ++i;
      }
    }
  }

  // Tighten the source leaf (paper: "the leaf's MBR is tightened to
  // reduce overlap") and refresh both routing entries.
  const Rect tight = leaf.ComputeMbr();
  leaf.set_mbr(tight);
  leaf_guard.MarkDirty();
  sib_guard.MarkDirty();
  obs->OnNodeMbrChanged(leaf_id, 0, tight);
  obs->OnNodeMbrChanged(chosen.child, 0, sib.mbr());
  obs->OnLeafOccupancyChanged(leaf_id, leaf.count(), leaf.capacity());
  obs->OnLeafOccupancyChanged(chosen.child, sib.count(), sib.capacity());

  const int lslot = parent.FindChildSlot(leaf_id);
  BURTREE_CHECK(lslot >= 0);
  parent.set_entry_rect(static_cast<uint32_t>(lslot), tight);
  parent_guard.MarkDirty();
}

StatusOr<UpdateResult> GeneralizedBottomUpStrategy::Update(
    ObjectId oid, const Point& old_pos, const Point& new_pos) {
  RTree& tree = system_->tree();
  SummaryStructure* summary = system_->summary();
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

  // Step 1: root containment test against the direct access table — the
  // only zero-I/O global check (Algorithm 2, first guard).
  if (!summary->root_mbr().Contains(new_pos)) return top_down();

  // Step 2: direct leaf access through the secondary oid index.
  auto leaf_or = system_->oid_index()->Lookup(oid);
  if (!leaf_or.ok()) return leaf_or.status();
  const PageId leaf_id = leaf_or.value();

  PageGuard leaf_guard = PageGuard::Fetch(tree.pool(), leaf_id);
  NodeView leaf(leaf_guard.data(), tree.options().page_size,
                tree.options().parent_pointers);
  const int slot = leaf.FindOidSlot(oid);
  BURTREE_CHECK(slot >= 0);

  // Step 3: in-place update when the leaf MBR still bounds the object.
  if (leaf.mbr().Contains(new_pos)) {
    leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
    leaf_guard.MarkDirty();
    return record(UpdatePath::kInPlace);
  }

  // Step 4/5: the distance threshold delta picks the order — fast movers
  // try the sibling shift first, slow movers the MBR extension first
  // (§3.2.1 optimization 2).
  const double dist = old_pos.DistanceTo(new_pos);
  const bool extend_first = dist < options_.distance_threshold;
  if (extend_first) {
    if (TryExtend(leaf_guard, leaf, slot, oid, new_pos, nullptr)) {
      return record(UpdatePath::kExtend);
    }
    if (TrySiblingShift(leaf_guard, leaf, oid, new_pos, nullptr)) {
      return record(UpdatePath::kSibling);
    }
  } else {
    if (TrySiblingShift(leaf_guard, leaf, oid, new_pos, nullptr)) {
      return record(UpdatePath::kSibling);
    }
    if (TryExtend(leaf_guard, leaf, slot, oid, new_pos, nullptr)) {
      return record(UpdatePath::kExtend);
    }
  }

  // Step 6: bounded ascent (FindParent / Algorithm 3) to the lowest
  // ancestor containing the new position, then a standard insert rooted
  // there. Algorithm 3 "returns the root offset" when no bounding
  // ancestor exists within the level threshold — the update degrades to
  // a bottom-up delete plus a root-rooted insert, never a full top-down
  // delete (that is only needed for underflow).
  if (leaf.count() <= tree.MinFill(/*leaf=*/true)) {
    leaf_guard.Release();
    return top_down();
  }
  const uint32_t max_levels =
      options_.level_threshold == GbuOptions::kLevelThresholdMax
          ? tree.root_level()
          : options_.level_threshold;
  const auto ancestor =
      summary->FindAncestorContaining(leaf_id, new_pos, max_levels);

  leaf.RemoveEntry(static_cast<uint32_t>(slot));
  leaf_guard.MarkDirty();
  TreeObserver* obs = tree.observer();
  obs->OnLeafEntryRemoved(oid, leaf_id);
  obs->OnLeafOccupancyChanged(leaf_id, leaf.count(), leaf.capacity());
  leaf_guard.Release();

  if (ancestor.has_value()) {
    BURTREE_RETURN_IF_ERROR(
        tree.InsertDescendingFrom(ancestor->path_from_root, oid, new_rect));
    return record(UpdatePath::kAscend);
  }
  BURTREE_RETURN_IF_ERROR(
      tree.InsertDescendingFrom({tree.root()}, oid, new_rect));
  return record(UpdatePath::kRootInsert);
}

bool GeneralizedBottomUpStrategy::TryScopedParentAscend(
    UpdateLatchScope& scope, PageGuard& leaf_guard, NodeView& leaf,
    int slot, ObjectId oid, const Point& new_pos) {
  RTree& tree = system_->tree();
  SummaryStructure* summary = system_->summary();
  TreeObserver* obs = tree.observer();
  const PageId leaf_id = leaf_guard.id();
  const Rect new_rect = IndexSystem::PointRect(new_pos);

  if (options_.level_threshold < 1) return false;  // ascent disabled
  // Removal below must not underflow (same guard as the unscoped path).
  if (leaf.count() <= tree.MinFill(/*leaf=*/true)) return false;

  // FindParent stops at the immediate parent exactly when the parent MBR
  // bounds the new position (the leaf itself does not, or the in-place
  // arm would have taken the update). Deeper ascents escalate.
  const PageId parent_id = summary->ParentOf(leaf_id);
  if (parent_id == kInvalidPageId) return false;
  if (!scope.Covers(parent_id)) return false;
  const auto parent_mbr = summary->NodeMbr(parent_id);
  if (!parent_mbr.has_value() || !parent_mbr->Contains(new_pos)) {
    return false;
  }

  PageGuard parent_guard = PageGuard::Fetch(tree.pool(), parent_id);
  NodeView parent(parent_guard.data(), tree.options().page_size,
                  tree.options().parent_pointers);

  // Guttman ChooseLeaf among the parent's children — the same
  // NodeView::ChooseSubtree step the unscoped re-insert would run (the
  // source leaf competes too; its routing entry is equally stale there).
  if (parent.count() == 0) return false;  // empty parent: cannot happen
  const InternalEntry chosen =
      parent.internal_entry(parent.ChooseSubtree(new_rect));

  const bool dest_is_source = chosen.child == leaf_id;
  if (!dest_is_source && !scope.TryExtend(chosen.child)) return false;

  PageGuard dest_guard;
  if (!dest_is_source) {
    dest_guard = PageGuard::Fetch(tree.pool(), chosen.child);
  }
  NodeView dest = dest_is_source
                      ? leaf
                      : NodeView(dest_guard.data(), tree.options().page_size,
                                 tree.options().parent_pointers);
  // A full destination means the append would split: escalate instead.
  if (dest.full()) return false;

  // Commit. Order mirrors the unscoped path: bottom-up delete, then the
  // append with expand-only MBR maintenance.
  leaf.RemoveEntry(static_cast<uint32_t>(slot));
  leaf_guard.MarkDirty();
  obs->OnLeafEntryRemoved(oid, leaf_id);
  obs->OnLeafOccupancyChanged(leaf_id, leaf.count(), leaf.capacity());

  dest.AppendLeafEntry(LeafEntry{new_rect, oid});
  obs->OnLeafEntryAdded(oid, chosen.child);
  obs->OnLeafOccupancyChanged(chosen.child, dest.count(), dest.capacity());
  const Rect new_cover = dest.mbr().UnionWith(new_rect);
  if (!(new_cover == dest.mbr())) {
    dest.set_mbr(new_cover);
    obs->OnNodeMbrChanged(chosen.child, 0, new_cover);
  }
  if (dest_is_source) {
    leaf_guard.MarkDirty();
  } else {
    dest_guard.MarkDirty();
  }

  // AdjustAncestors, expand-only, which here cannot propagate past the
  // parent: the destination grew only by a point inside the parent MBR.
  const int dslot = parent.FindChildSlot(chosen.child);
  BURTREE_CHECK(dslot >= 0);
  const Rect er = parent.entry_rect(static_cast<uint32_t>(dslot));
  const Rect ner = er.UnionWith(new_cover);
  if (!(ner == er)) {
    parent.set_entry_rect(static_cast<uint32_t>(dslot), ner);
    parent_guard.MarkDirty();
  }
  return true;
}

UpdatePlan GeneralizedBottomUpStrategy::PlanUpdate(ObjectId oid,
                                                   const Point& old_pos,
                                                   const Point& new_pos) {
  (void)old_pos;
  SummaryStructure* summary = system_->summary();
  // Root-containment failure means a top-down update: no leaf-local plan.
  if (!summary->root_mbr().Contains(new_pos)) return UpdatePlan{};
  auto leaf_or = system_->oid_index()->Lookup(oid);
  if (!leaf_or.ok()) return UpdatePlan{};
  UpdatePlan plan;
  plan.leaf_local = true;
  plan.leaf = leaf_or.value();
  plan.parent = summary->ParentOf(plan.leaf);  // zero I/O (§3.2)
  // Split-safety straight from the fullness bit vector, also zero I/O.
  plan.split_safe = !summary->LeafIsFull(plan.leaf);
  return plan;
}

StatusOr<UpdateResult> GeneralizedBottomUpStrategy::UpdateScoped(
    UpdateLatchScope& scope, const UpdatePlan& plan, ObjectId oid,
    const Point& old_pos, const Point& new_pos) {
  RTree& tree = system_->tree();
  const Rect new_rect = IndexSystem::PointRect(new_pos);
  const PageId leaf_id = plan.leaf;
  BURTREE_CHECK(scope.Covers(leaf_id));

  auto record = [&](UpdatePath p) {
    RecordPath(p);
    return UpdateResult{p};
  };

  PageGuard leaf_guard = PageGuard::Fetch(tree.pool(), leaf_id);
  NodeView leaf(leaf_guard.data(), tree.options().page_size,
                tree.options().parent_pointers);
  const int slot = leaf.FindOidSlot(oid);
  if (slot < 0) {
    // The object was piggybacked to a sibling between planning and
    // latching: escalate.
    return Status::LatchContention("object moved after planning");
  }

  // Step 3: in-place update when the leaf MBR still bounds the object.
  if (leaf.mbr().Contains(new_pos)) {
    leaf.set_entry_rect(static_cast<uint32_t>(slot), new_rect);
    leaf_guard.MarkDirty();
    return record(UpdatePath::kInPlace);
  }

  // Steps 4/5: same delta-ordered arms as Update(), scope-confined.
  const double dist = old_pos.DistanceTo(new_pos);
  const bool extend_first = dist < options_.distance_threshold;
  if (extend_first) {
    if (TryExtend(leaf_guard, leaf, slot, oid, new_pos, &scope)) {
      return record(UpdatePath::kExtend);
    }
    if (TrySiblingShift(leaf_guard, leaf, oid, new_pos, &scope)) {
      return record(UpdatePath::kSibling);
    }
  } else {
    if (TrySiblingShift(leaf_guard, leaf, oid, new_pos, &scope)) {
      return record(UpdatePath::kSibling);
    }
    if (TryExtend(leaf_guard, leaf, slot, oid, new_pos, &scope)) {
      return record(UpdatePath::kExtend);
    }
  }

  // Step 6, one-level case: an ascent that stops at the leaf's own
  // parent re-inserts inside the latched subtree.
  if (TryScopedParentAscend(scope, leaf_guard, leaf, slot, oid, new_pos)) {
    return record(UpdatePath::kAscend);
  }

  // Deeper ascents / root insert / top-down modify structure along an
  // arbitrary path — escalate before touching anything.
  return Status::LatchContention("needs ascent or top-down");
}

}  // namespace burtree
