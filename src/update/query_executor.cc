#include "update/query_executor.h"

namespace burtree {

QueryExecutor::QueryExecutor(IndexSystem* system, bool use_summary)
    : system_(system), use_summary_(use_summary) {
  if (use_summary_) BURTREE_CHECK(system_->summary() != nullptr);
}

StatusOr<size_t> QueryExecutor::QueryCoupled(const Rect& window,
                                             TraversalLatchHooks* hooks,
                                             const RTree::QueryCallback& cb,
                                             bool pruned) {
  RTree& tree = system_->tree();
  size_t matches = 0;
  auto count_cb = [&](ObjectId oid, const Rect& r) {
    ++matches;
    if (cb) cb(oid, r);
  };

  if (pruned && use_summary_ && tree.root_level() >= 1) {
    // Summary-pruned plan, made safe against concurrent splits by the
    // structural epoch: the plan and its epoch are taken atomically, and
    // any split/SMO that could move leaves out from under a planned
    // parent fires an observer callback (under the writer's page X
    // latches, i.e. before our S scan of the affected pages could have
    // succeeded) that bumps the epoch — so an unchanged epoch after the
    // scan proves the pruned pass saw everything a full descent would.
    const SummaryStructure* summary = system_->summary();
    uint64_t epoch = 0;
    const std::vector<PageId> parents =
        summary->OverlappingLeafParents(window, &epoch);
    std::vector<LeafEntry> found;
    for (PageId parent : parents) {
      BURTREE_RETURN_IF_ERROR(
          tree.QuerySubtreeCoupled(parent, window, hooks, &found));
    }
    if (!summary->ValidateEpoch(epoch)) {
      return Status::LatchContention("pruned query plan went stale");
    }
    for (const LeafEntry& e : found) count_cb(e.oid, e.rect);
    return matches;
  }

  // Unpruned: the root-anchored coupled descent reads every link under
  // its parent's latch, so it sees each split either fully applied or
  // not at all — the fallback when the plan keeps going stale.
  BURTREE_RETURN_IF_ERROR(tree.QueryCoupled(window, count_cb, hooks));
  return matches;
}

StatusOr<size_t> QueryExecutor::QueryOptimistic(const Rect& window,
                                                VersionLatchHooks* hooks,
                                                const RTree::QueryCallback& cb,
                                                bool pruned, int budget) {
  RTree& tree = system_->tree();
  size_t matches = 0;
  auto count_cb = [&](ObjectId oid, const Rect& r) {
    ++matches;
    if (cb) cb(oid, r);
  };

  if (pruned && use_summary_ && tree.root_level() >= 1) {
    // Same epoch discipline as the pruned QueryCoupled above, with the
    // optimistic snapshot protocol doing the per-subtree reads.
    const SummaryStructure* summary = system_->summary();
    uint64_t epoch = 0;
    const std::vector<PageId> parents =
        summary->OverlappingLeafParents(window, &epoch);
    std::vector<LeafEntry> found;
    for (PageId parent : parents) {
      BURTREE_RETURN_IF_ERROR(
          tree.QueryOptimisticSubtree(parent, window, hooks, &found, &budget));
    }
    if (!summary->ValidateEpoch(epoch)) {
      return Status::LatchContention("pruned query plan went stale");
    }
    for (const LeafEntry& e : found) count_cb(e.oid, e.rect);
    return matches;
  }

  BURTREE_RETURN_IF_ERROR(tree.QueryOptimistic(window, count_cb, hooks, budget));
  return matches;
}

StatusOr<size_t> QueryExecutor::Query(const Rect& window,
                                      const RTree::QueryCallback& cb) {
  RTree& tree = system_->tree();
  size_t matches = 0;
  auto count_cb = [&](ObjectId oid, const Rect& r) {
    ++matches;
    if (cb) cb(oid, r);
  };

  if (!use_summary_ || tree.root_level() < 1) {
    BURTREE_RETURN_IF_ERROR(tree.Query(window, count_cb));
    return matches;
  }

  // Plan in memory: which parents-of-leaves overlap the window. Writers
  // are excluded for the whole call, so the plan cannot go stale.
  const std::vector<PageId> parents =
      system_->summary()->OverlappingLeafParents(window);

  BufferPool* pool = tree.pool();
  const TreeOptions& opts = tree.options();
  for (PageId parent : parents) {
    PageGuard pg = PageGuard::Fetch(pool, parent);
    NodeView pv(pg.data(), opts.page_size, opts.parent_pointers);
    BURTREE_CHECK(pv.level() == 1);
    std::vector<PageId> leaves;
    for (uint32_t i = 0; i < pv.count(); ++i) {
      const InternalEntry e = pv.internal_entry(i);
      if (e.rect.Intersects(window)) leaves.push_back(e.child);
    }
    pg.Release();
    for (PageId leaf : leaves) {
      PageGuard lg = PageGuard::Fetch(pool, leaf);
      NodeView lv(lg.data(), opts.page_size, opts.parent_pointers);
      for (uint32_t i = 0; i < lv.count(); ++i) {
        const LeafEntry e = lv.leaf_entry(i);
        if (e.rect.Intersects(window)) count_cb(e.oid, e.rect);
      }
    }
  }
  return matches;
}

}  // namespace burtree
