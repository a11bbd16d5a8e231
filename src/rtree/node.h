// On-page R-tree node layout and the NodeView accessor.
//
// Layout (little-endian, memcpy-addressed so no alignment requirements):
//
//   offset 0   : u32   level           (0 = leaf)
//   offset 4   : u32   count
//   offset 8   : f64x4 mbr             (the node's own MBR; see DESIGN.md)
//   offset 40  : u32   parent          (only when TreeOptions::parent_pointers)
//   entries    : leaf     -> { f64x4 rect; u64 oid }        40 B
//                internal -> { f64x4 rect; u32 child }      36 B
//
// With the paper's 1024-byte pages this yields a leaf capacity of 24 and an
// internal fanout of 27 (23/27 with parent pointers) — a 1 M-object tree has
// 5 levels, matching the paper's setup.
#pragma once

#include <cstring>
#include <limits>

#include "common/geometry.h"
#include "common/logging.h"
#include "common/options.h"
#include "common/types.h"

namespace burtree {

/// Data entry stored in leaves.
struct LeafEntry {
  Rect rect;
  ObjectId oid = kInvalidObjectId;
};

/// Routing entry stored in internal nodes.
struct InternalEntry {
  Rect rect;
  PageId child = kInvalidPageId;
};

/// Zero-copy accessor over a node page image. NodeView does not own the
/// bytes; it is valid only while the underlying page stays pinned.
class NodeView {
 public:
  static constexpr size_t kBaseHeaderSize = 8 + 4 * sizeof(double);  // 40
  static constexpr size_t kParentPtrSize = sizeof(PageId);           // 4
  static constexpr size_t kLeafEntrySize = 4 * sizeof(double) + 8;   // 40
  static constexpr size_t kInternalEntrySize =
      4 * sizeof(double) + sizeof(PageId);  // 36

  NodeView(uint8_t* data, size_t page_size, bool parent_pointers)
      : data_(data), page_size_(page_size), parent_pointers_(parent_pointers) {}

  // ---- Header ----

  Level level() const { return LoadU32(0); }
  void set_level(Level l) { StoreU32(0, l); }
  bool is_leaf() const { return level() == 0; }

  uint32_t count() const { return LoadU32(4); }
  void set_count(uint32_t c) { StoreU32(4, c); }

  Rect mbr() const {
    Rect r;
    std::memcpy(&r, data_ + 8, sizeof(Rect));
    return r;
  }
  void set_mbr(const Rect& r) { std::memcpy(data_ + 8, &r, sizeof(Rect)); }

  PageId parent() const {
    BURTREE_DCHECK(parent_pointers_);
    return LoadU32(kBaseHeaderSize);
  }
  void set_parent(PageId p) {
    BURTREE_DCHECK(parent_pointers_);
    StoreU32(kBaseHeaderSize, p);
  }

  // ---- Geometry of the layout ----

  size_t header_size() const {
    return kBaseHeaderSize + (parent_pointers_ ? kParentPtrSize : 0);
  }
  size_t entry_size() const {
    return is_leaf() ? kLeafEntrySize : kInternalEntrySize;
  }
  /// Maximum number of entries this node can hold (M).
  uint32_t capacity() const {
    return static_cast<uint32_t>((page_size_ - header_size()) / entry_size());
  }
  /// Capacity for a given role without needing a materialized node.
  static uint32_t CapacityFor(size_t page_size, bool parent_pointers,
                              bool leaf) {
    const size_t hdr =
        kBaseHeaderSize + (parent_pointers ? kParentPtrSize : 0);
    const size_t es = leaf ? kLeafEntrySize : kInternalEntrySize;
    return static_cast<uint32_t>((page_size - hdr) / es);
  }
  bool full() const { return count() >= capacity(); }

  // ---- Leaf entries ----

  LeafEntry leaf_entry(uint32_t i) const {
    BURTREE_DCHECK(is_leaf() && i < count());
    LeafEntry e;
    const uint8_t* p = EntryPtr(i);
    std::memcpy(&e.rect, p, sizeof(Rect));
    std::memcpy(&e.oid, p + sizeof(Rect), sizeof(ObjectId));
    return e;
  }
  void set_leaf_entry(uint32_t i, const LeafEntry& e) {
    BURTREE_DCHECK(is_leaf() && i < capacity());
    uint8_t* p = EntryPtr(i);
    std::memcpy(p, &e.rect, sizeof(Rect));
    std::memcpy(p + sizeof(Rect), &e.oid, sizeof(ObjectId));
  }
  /// Appends a leaf entry; caller must have checked capacity.
  void AppendLeafEntry(const LeafEntry& e) {
    BURTREE_CHECK(count() < capacity());
    set_leaf_entry(count(), e);
    set_count(count() + 1);
  }

  // ---- Internal entries ----

  InternalEntry internal_entry(uint32_t i) const {
    BURTREE_DCHECK(!is_leaf() && i < count());
    InternalEntry e;
    const uint8_t* p = EntryPtr(i);
    std::memcpy(&e.rect, p, sizeof(Rect));
    std::memcpy(&e.child, p + sizeof(Rect), sizeof(PageId));
    return e;
  }
  void set_internal_entry(uint32_t i, const InternalEntry& e) {
    BURTREE_DCHECK(!is_leaf() && i < capacity());
    uint8_t* p = EntryPtr(i);
    std::memcpy(p, &e.rect, sizeof(Rect));
    std::memcpy(p + sizeof(Rect), &e.child, sizeof(PageId));
  }
  void AppendInternalEntry(const InternalEntry& e) {
    BURTREE_CHECK(count() < capacity());
    set_internal_entry(count(), e);
    set_count(count() + 1);
  }

  /// Rect of entry i regardless of node kind.
  Rect entry_rect(uint32_t i) const {
    BURTREE_DCHECK(i < count());
    Rect r;
    std::memcpy(&r, EntryPtr(i), sizeof(Rect));
    return r;
  }
  void set_entry_rect(uint32_t i, const Rect& r) {
    BURTREE_DCHECK(i < count());
    std::memcpy(EntryPtr(i), &r, sizeof(Rect));
  }

  /// Removes entry i by swapping the last entry into its slot.
  void RemoveEntry(uint32_t i) {
    BURTREE_DCHECK(i < count());
    const uint32_t last = count() - 1;
    if (i != last) {
      std::memcpy(EntryPtr(i), EntryPtr(last), entry_size());
    }
    set_count(last);
  }

  /// Slot of the entry pointing at `child`, or -1.
  int FindChildSlot(PageId child) const {
    BURTREE_DCHECK(!is_leaf());
    for (uint32_t i = 0; i < count(); ++i) {
      if (internal_entry(i).child == child) return static_cast<int>(i);
    }
    return -1;
  }

  /// Slot of the data entry for `oid`, or -1.
  int FindOidSlot(ObjectId oid) const {
    BURTREE_DCHECK(is_leaf());
    for (uint32_t i = 0; i < count(); ++i) {
      if (leaf_entry(i).oid == oid) return static_cast<int>(i);
    }
    return -1;
  }

  /// Guttman's ChooseLeaf step over an internal node: the entry needing
  /// the least enlargement to include `rect`, ties broken by smaller
  /// area (the first such entry wins a full tie). The node must not be
  /// empty.
  uint32_t ChooseSubtree(const Rect& rect) const {
    BURTREE_CHECK(count() > 0);
    uint32_t best = 0;
    double best_enl = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < count(); ++i) {
      const Rect r = entry_rect(i);
      const double enl = r.Enlargement(rect);
      const double area = r.Area();
      if (enl < best_enl || (enl == best_enl && area < best_area)) {
        best_enl = enl;
        best_area = area;
        best = i;
      }
    }
    return best;
  }

  /// Union of all entry rects (the tight MBR).
  Rect ComputeMbr() const {
    Rect r = Rect::Empty();
    for (uint32_t i = 0; i < count(); ++i) r.ExpandToInclude(entry_rect(i));
    return r;
  }

  /// Initializes a fresh node page.
  void Format(Level level, bool zero_parent = true) {
    set_level(level);
    set_count(0);
    set_mbr(Rect::Empty());
    if (parent_pointers_ && zero_parent) set_parent(kInvalidPageId);
  }

 private:
  uint8_t* EntryPtr(uint32_t i) {
    return data_ + header_size() + i * entry_size();
  }
  const uint8_t* EntryPtr(uint32_t i) const {
    return data_ + header_size() + i * entry_size();
  }
  uint32_t LoadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, data_ + off, sizeof(v));
    return v;
  }
  void StoreU32(size_t off, uint32_t v) {
    std::memcpy(data_ + off, &v, sizeof(v));
  }

  uint8_t* data_;
  size_t page_size_;
  bool parent_pointers_;
};

}  // namespace burtree
