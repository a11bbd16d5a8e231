#include "summary/summary.h"

#include <algorithm>
#include <mutex>

#include "common/logging.h"

namespace burtree {

PageId SummaryStructure::root() const {
  std::shared_lock lock(mu_);
  return root_;
}

Level SummaryStructure::root_level() const {
  std::shared_lock lock(mu_);
  return root_level_;
}

Rect SummaryStructure::root_mbr() const {
  std::shared_lock lock(mu_);
  auto it = internal_.find(root_);
  if (it != internal_.end()) return it->second.mbr;
  // Root is a leaf: the table intentionally holds no leaf MBRs, so a
  // single-leaf tree reports an empty root MBR and GBU degrades to
  // top-down — correct and cheap for degenerate trees (see DESIGN.md).
  return Rect::Empty();
}

std::optional<Rect> SummaryStructure::NodeMbr(PageId page) const {
  std::shared_lock lock(mu_);
  auto it = internal_.find(page);
  if (it == internal_.end()) return std::nullopt;
  return it->second.mbr;
}

PageId SummaryStructure::ParentOf(PageId node) const {
  std::shared_lock lock(mu_);
  auto it = internal_.find(node);
  if (it != internal_.end()) return it->second.parent;
  auto lt = leaf_parent_.find(node);
  if (lt != leaf_parent_.end()) return lt->second;
  return kInvalidPageId;
}

bool SummaryStructure::LeafIsFull(PageId leaf) const {
  std::shared_lock lock(mu_);
  auto it = leaf_full_.find(leaf);
  return it != leaf_full_.end() && it->second;
}

size_t SummaryStructure::leaf_count() const {
  std::shared_lock lock(mu_);
  return leaf_full_.size();
}

std::optional<AncestorPath> SummaryStructure::FindAncestorContaining(
    PageId node, const Point& target, uint32_t max_levels) const {
  std::shared_lock lock(mu_);
  PageId cur = node;
  uint32_t ascended = 0;
  while (ascended < max_levels) {
    PageId parent;
    auto it = internal_.find(cur);
    if (it != internal_.end()) {
      parent = it->second.parent;
    } else {
      auto lt = leaf_parent_.find(cur);
      parent = lt != leaf_parent_.end() ? lt->second : kInvalidPageId;
    }
    if (parent == kInvalidPageId) break;
    cur = parent;
    ++ascended;
    auto pit = internal_.find(cur);
    if (pit == internal_.end()) break;  // table desync would be a bug
    if (pit->second.mbr.Contains(target)) {
      AncestorPath ap;
      ap.ancestor_level = pit->second.level;
      // Assemble root -> ancestor path from parent links.
      std::vector<PageId> rev{cur};
      PageId up = pit->second.parent;
      while (up != kInvalidPageId) {
        rev.push_back(up);
        auto uit = internal_.find(up);
        up = uit != internal_.end() ? uit->second.parent : kInvalidPageId;
      }
      ap.path_from_root.assign(rev.rbegin(), rev.rend());
      return ap;
    }
  }
  return std::nullopt;
}

std::optional<AncestorPath> SummaryStructure::FindParentScan(
    PageId node, const Point& target, uint32_t max_levels) const {
  std::shared_lock lock(mu_);
  PageId cur = node;
  // "l = 2; while l <= root level": level 1 in our numbering is the first
  // level of parents (the paper counts the leaf level as 1).
  for (Level l = 1; l <= root_level_ && l - 1 < max_levels + 0u; ++l) {
    PageId found = kInvalidPageId;
    for (const auto& [page, info] : internal_) {
      if (info.level != l) continue;
      // "for each parent entry whose MBR contains node": cheap MBR test
      // first, then the child-offset match.
      bool has_child = false;
      for (PageId child : info.children) {
        if (child == cur) {
          has_child = true;
          break;
        }
      }
      if (!has_child) continue;
      found = page;
      if (info.mbr.Contains(target)) {
        AncestorPath ap;
        ap.ancestor_level = l;
        std::vector<PageId> rev{page};
        PageId up = info.parent;
        while (up != kInvalidPageId) {
          rev.push_back(up);
          auto uit = internal_.find(up);
          up = uit != internal_.end() ? uit->second.parent : kInvalidPageId;
        }
        ap.path_from_root.assign(rev.rbegin(), rev.rend());
        return ap;
      }
      break;  // parent found but MBR misses the target: ascend
    }
    if (found == kInvalidPageId) break;
    cur = found;
  }
  return std::nullopt;
}

std::vector<PageId> SummaryStructure::PathFromRoot(PageId node) const {
  std::shared_lock lock(mu_);
  std::vector<PageId> rev{node};
  PageId cur = node;
  while (cur != root_ && cur != kInvalidPageId) {
    auto it = internal_.find(cur);
    if (it != internal_.end()) {
      cur = it->second.parent;
    } else {
      auto lt = leaf_parent_.find(cur);
      cur = lt != leaf_parent_.end() ? lt->second : kInvalidPageId;
    }
    if (cur != kInvalidPageId) rev.push_back(cur);
  }
  return {rev.rbegin(), rev.rend()};
}

std::vector<PageId> SummaryStructure::OverlappingAtLevel(const Rect& window,
                                                         Level level) const {
  std::shared_lock lock(mu_);
  std::vector<PageId> out;
  for (const auto& [page, info] : internal_) {
    if (info.level == level && info.mbr.Intersects(window)) {
      out.push_back(page);
    }
  }
  return out;
}

std::vector<PageId> SummaryStructure::OverlappingLeafParents(
    const Rect& window) const {
  return OverlappingLeafParents(window, nullptr);
}

std::vector<PageId> SummaryStructure::OverlappingLeafParents(
    const Rect& window, uint64_t* epoch) const {
  std::shared_lock lock(mu_);
  // Stamp under the same shared hold that reads the table: mutators bump
  // under the unique lock, so the plan below is exactly the table state
  // at this epoch.
  if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_acquire);
  std::vector<PageId> frontier;
  auto rit = internal_.find(root_);
  if (rit == internal_.end()) return frontier;  // root is a leaf
  if (!rit->second.mbr.Intersects(window)) return frontier;
  frontier.push_back(root_);
  for (Level level = root_level_; level > 1; --level) {
    std::vector<PageId> next;
    for (PageId page : frontier) {
      const NodeInfo& info = internal_.at(page);
      for (PageId child : info.children) {
        auto cit = internal_.find(child);
        BURTREE_DCHECK(cit != internal_.end());
        if (cit != internal_.end() &&
            cit->second.mbr.Intersects(window)) {
          next.push_back(child);
        }
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

size_t SummaryStructure::table_bytes() const {
  std::shared_lock lock(mu_);
  size_t bytes = 0;
  for (const auto& [page, info] : internal_) {
    bytes += sizeof(PageId) + sizeof(Level) + sizeof(Rect) +
             info.children.size() * sizeof(PageId);
  }
  return bytes;
}

size_t SummaryStructure::bitvector_bytes() const {
  std::shared_lock lock(mu_);
  return (leaf_full_.size() + 7) / 8;
}

size_t SummaryStructure::internal_node_count() const {
  std::shared_lock lock(mu_);
  return internal_.size();
}

void SummaryStructure::OnNodeCreated(PageId page, Level level) {
  std::unique_lock lock(mu_);
  if (level == 0) {
    leaf_full_[page] = false;
    leaf_parent_[page] = kInvalidPageId;
  } else {
    NodeInfo info;
    info.level = level;
    internal_[page] = std::move(info);
    epoch_.fetch_add(1, std::memory_order_release);
  }
}

void SummaryStructure::OnNodeFreed(PageId page, Level level) {
  std::unique_lock lock(mu_);
  if (level == 0) {
    leaf_full_.erase(page);
    leaf_parent_.erase(page);
  } else {
    internal_.erase(page);
    epoch_.fetch_add(1, std::memory_order_release);
  }
}

void SummaryStructure::OnNodeMbrChanged(PageId page, Level level,
                                        const Rect& mbr) {
  if (level == 0) return;  // the table holds internal nodes only
  std::unique_lock lock(mu_);
  auto it = internal_.find(page);
  if (it != internal_.end()) it->second.mbr = mbr;
  epoch_.fetch_add(1, std::memory_order_release);
}

void SummaryStructure::OnChildLinked(PageId parent, PageId child) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  auto pit = internal_.find(parent);
  BURTREE_DCHECK(pit != internal_.end());
  if (pit == internal_.end()) return;
  pit->second.children.push_back(child);
  auto cit = internal_.find(child);
  if (cit != internal_.end()) {
    cit->second.parent = parent;
  } else {
    leaf_parent_[child] = parent;
  }
}

void SummaryStructure::OnChildUnlinked(PageId parent, PageId child) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  auto pit = internal_.find(parent);
  if (pit != internal_.end()) {
    auto& ch = pit->second.children;
    auto it = std::find(ch.begin(), ch.end(), child);
    if (it != ch.end()) {
      *it = ch.back();
      ch.pop_back();
    }
  }
  auto cit = internal_.find(child);
  if (cit != internal_.end()) {
    if (cit->second.parent == parent) cit->second.parent = kInvalidPageId;
  } else {
    auto lt = leaf_parent_.find(child);
    if (lt != leaf_parent_.end() && lt->second == parent) {
      lt->second = kInvalidPageId;
    }
  }
}

void SummaryStructure::OnLeafOccupancyChanged(PageId leaf, uint32_t count,
                                              uint32_t capacity) {
  std::unique_lock lock(mu_);
  leaf_full_[leaf] = count >= capacity;
}

void SummaryStructure::OnRootChanged(PageId new_root, Level new_level) {
  std::unique_lock lock(mu_);
  epoch_.fetch_add(1, std::memory_order_release);
  root_ = new_root;
  root_level_ = new_level;
  auto it = internal_.find(new_root);
  if (it != internal_.end()) it->second.parent = kInvalidPageId;
  auto lt = leaf_parent_.find(new_root);
  if (lt != leaf_parent_.end()) lt->second = kInvalidPageId;
}

bool SummaryStructure::SelfCheck() const {
  std::shared_lock lock(mu_);
  for (const auto& [page, info] : internal_) {
    if (page != root_ && info.parent == kInvalidPageId) return false;
    for (PageId child : info.children) {
      auto cit = internal_.find(child);
      if (cit != internal_.end()) {
        if (cit->second.parent != page) return false;
        if (cit->second.level + 1 != info.level) return false;
      } else {
        auto lt = leaf_parent_.find(child);
        if (lt == leaf_parent_.end() || lt->second != page) return false;
        if (info.level != 1) return false;
      }
    }
  }
  return true;
}

}  // namespace burtree
