// R-tree node: in-memory form and on-page serialization.
//
// On-page layout (little-endian, as on every platform we target):
//
//   offset 0   int32   level      (0 = leaf)
//   offset 4   int32   count      (number of entries)
//   offset 8   int64   reserved
//   offset 16  entries, kEntrySize (48 for 2-D) bytes each:
//     2*kDims x f64  MBR (lo[0..kDims), hi[0..kDims))
//     int64          child page id (internal) / record id (leaf)
//     int64          reserved (payload hook; also sizes the 2-D entry so
//                    that the paper's 1 KiB page yields exactly M = 21)
//
// Leaf entries store the indexed point as a degenerate rectangle
// (lo == hi), which lets every distance metric treat node MBRs and data
// points uniformly.

#ifndef KCPQ_RTREE_NODE_H_
#define KCPQ_RTREE_NODE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "geometry/rect.h"
#include "storage/page.h"

namespace kcpq {

/// One slot of a node: a rectangle plus a child page id (internal nodes) or
/// a user record id (leaves).
struct Entry {
  Rect rect;
  uint64_t id = 0;

  /// Leaf-entry point accessor (valid when the rect is degenerate).
  Point AsPoint() const {
    Point p;
    for (int d = 0; d < kDims; ++d) p.coord[d] = rect.lo[d];
    return p;
  }

  static Entry ForPoint(const Point& p, uint64_t record_id) {
    return Entry{Rect::FromPoint(p), record_id};
  }
};

/// Page count for decoding a node outside any store (serialization tests
/// and benches): child page ids go unchecked.
inline constexpr uint64_t kNoPageBound = ~uint64_t{0};

/// In-memory image of one node page.
struct Node {
  int32_t level = 0;  // 0 = leaf; root level = tree height - 1
  std::vector<Entry> entries;

  bool IsLeaf() const { return level == 0; }

  /// Tight MBR over the entries; Rect::Empty() for an empty node.
  Rect ComputeMbr() const {
    Rect mbr = Rect::Empty();
    for (const Entry& e : entries) mbr.Expand(e.rect);
    return mbr;
  }
};

/// Immutable decoded image of one node page, shared by every reader of the
/// page while it stays resident: the buffer caches it on the page's frame
/// (BufferManager::ReadImage), so a buffer hit costs no copy and no decode.
/// One allocation holds the header, the entries and, per axis, the entries'
/// permutation by ascending `rect.lo[axis]` — the order the plane sweeps of
/// cpq/leaf_kernel.h visit a node in. Built only by Decode, which validates
/// the page first.
class NodeImage {
 public:
  /// Validates `page` (level, entry count, every entry rect and, in an
  /// internal node, every child page id against `page_count`, the store's
  /// page count — the checks the engines rely on before the bytes steer a
  /// traversal) and builds its image. Corruption when any check fails.
  static Status Decode(const Page& page, std::shared_ptr<const NodeImage>* out,
                       uint64_t page_count = kNoPageBound);

  /// Writes the node back out as the page bytes SerializeNode would write
  /// (`*page` already has the page size it was decoded from).
  void Encode(Page* page) const;

  int32_t level() const { return level_; }
  bool IsLeaf() const { return level_ == 0; }
  std::span<const Entry> entries() const { return {entries_, count_}; }
  /// Tight MBR over the entries; Rect::Empty() for an empty node.
  const Rect& mbr() const { return mbr_; }
  /// Entry indices by ascending rect.lo[axis]. Built by std::sort over an
  /// index array, which makes the same moves a std::sort of the entries
  /// themselves would, so equal keys keep that sort's (unstable) order.
  std::span<const uint32_t> order(int axis) const {
    return {order_[axis], count_};
  }

 private:
  NodeImage() = default;

  int32_t level_ = 0;
  uint32_t count_ = 0;
  Rect mbr_;
  const Entry* entries_ = nullptr;
  const uint32_t* order_[kDims] = {};
};

using NodeImagePtr = std::shared_ptr<const NodeImage>;

/// Size of the fixed node header on a page, in bytes.
inline constexpr size_t kNodeHeaderSize = 16;
/// Size of one serialized entry, in bytes: the MBR (2 * kDims doubles),
/// the child/record id, and one reserved word. Derived from kDims so the
/// whole on-disk layout follows geometry/point.h's dimension constant;
/// with kDims = 2 this is 48 bytes — the paper's M = 21 on 1 KiB pages.
inline constexpr size_t kEntrySize =
    2 * kDims * sizeof(double) + 2 * sizeof(int64_t);

/// Maximum entries per node for a page size (the R-tree's M).
/// 1 KiB pages give 21, the paper's configuration.
inline constexpr size_t NodeCapacity(size_t page_size) {
  return (page_size - kNodeHeaderSize) / kEntrySize;
}

/// Serializes `node` into `*page` (must already have the target page size).
/// Fails if the node has more entries than the page can hold.
Status SerializeNode(const Node& node, Page* page);

/// Parses `page` into a mutable `*node`. Runs the same checks as
/// NodeImage::Decode and fails exactly when it does.
Status DeserializeNode(const Page& page, Node* node,
                       uint64_t page_count = kNoPageBound);

}  // namespace kcpq

#endif  // KCPQ_RTREE_NODE_H_
