// GBU: Generalized Bottom-Up Update (paper Algorithm 2), with the
// optimizations of §3.2.1:
//
//   * epsilon-capped *directional* MBR extension (iExtendMBR, Alg. 4),
//     bounded by the parent MBR read at zero cost from the summary;
//   * distance threshold delta — fast movers try sibling shift before
//     MBR extension, slow movers the reverse;
//   * level threshold lambda — bounded ascent via FindParent (Alg. 3)
//     over the direct access table, then a standard insert rooted at the
//     found ancestor;
//   * sibling choice using the leaf-fullness bit vector (no probe I/O)
//     with piggybacking of other entries to reduce overlap.
#pragma once

#include "update/index_system.h"
#include "update/strategy.h"

namespace burtree {

class GeneralizedBottomUpStrategy final : public UpdateStrategy {
 public:
  GeneralizedBottomUpStrategy(IndexSystem* system, const GbuOptions& options);

  StatusOr<UpdateResult> Update(ObjectId oid, const Point& old_pos,
                                const Point& new_pos) override;

  /// GBU plans at zero page I/O: the leaf comes from the oid index (one
  /// charged probe) and the parent from the summary structure's direct
  /// access table, so both latches can be acquired in sorted order
  /// before the operation reads any page.
  UpdatePlan PlanUpdate(ObjectId oid, const Point& old_pos,
                        const Point& new_pos) override;

  /// Leaf-local arms only (in-place / iExtendMBR / sibling shift with
  /// piggybacking). The bounded ascent and top-down fallbacks return
  /// LatchContention before mutating anything.
  StatusOr<UpdateResult> UpdateScoped(UpdateLatchScope& scope,
                                      const UpdatePlan& plan, ObjectId oid,
                                      const Point& old_pos,
                                      const Point& new_pos) override;

  /// Escalations (deep ascents, root inserts) are a bottom-up removal
  /// plus a root insert, which the coupled latch mode runs under page
  /// latches instead of the tree-wide latch.
  bool SupportsCoupledEscalation() const override { return true; }

  const char* name() const override { return "GBU"; }

  const GbuOptions& options() const { return options_; }

 private:
  /// Attempts the epsilon-capped extension of the leaf MBR towards
  /// new_pos. On success updates leaf + parent routing entry. With a
  /// latch scope, the parent must already be covered (it is in the plan).
  bool TryExtend(PageGuard& leaf_guard, NodeView& leaf, int slot,
                 ObjectId oid, const Point& new_pos,
                 UpdateLatchScope* scope);

  /// Attempts to shift the entry (plus piggybacked cohabitants) into a
  /// sibling leaf containing new_pos. Uses the bit vector to skip full
  /// siblings without reading them. With a latch scope, candidate
  /// siblings are try-latched (contended ones are skipped) and the
  /// fullness bit is re-checked under the latch.
  bool TrySiblingShift(PageGuard& leaf_guard, NodeView& leaf, ObjectId oid,
                       const Point& new_pos, UpdateLatchScope* scope);

  /// The committed shift: move the entry (and piggybacked cohabitants)
  /// from `leaf` into `sib`, tighten the source, refresh both routing
  /// entries. All three pages are pinned (and, on the scoped path,
  /// X-latched) by the caller.
  void DoSiblingShift(PageGuard& leaf_guard, NodeView& leaf,
                      PageGuard& parent_guard, NodeView& parent,
                      PageGuard& sib_guard, NodeView& sib,
                      const InternalEntry& chosen, ObjectId oid,
                      const Point& new_pos);

  /// Scoped one-level bounded ascent (UpdateScoped only): when
  /// FindParent would stop at the leaf's own parent — i.e. the parent
  /// MBR contains the new position — the re-insert's ChooseSubtree
  /// descent stays inside the latched subtree. Replicates
  /// InsertDescendingFrom's non-split append (same Guttman choice, same
  /// expand-only MBR updates, same observer events); returns false when
  /// the chosen child is full (a split must escalate) or its latch is
  /// contended. Mutates nothing on failure.
  bool TryScopedParentAscend(UpdateLatchScope& scope, PageGuard& leaf_guard,
                             NodeView& leaf, int slot, ObjectId oid,
                             const Point& new_pos);

  IndexSystem* system_;
  GbuOptions options_;
};

}  // namespace burtree
