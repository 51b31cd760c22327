// Deep structural validation. Used by tests after every mutation workload.

#include <algorithm>
#include <string>

#include "rtree/rtree.h"

namespace kcpq {

Status RStarTree::Validate() const {
  uint64_t leaf_entries = 0;
  std::vector<PageId> seen;
  KCPQ_RETURN_IF_ERROR(ValidateRecursive(root_page_, /*is_root=*/true,
                                         height_ - 1, /*expected_mbr=*/nullptr,
                                         &leaf_entries, &seen));
  if (leaf_entries != size_) {
    return Status::Corruption("tree size " + std::to_string(size_) +
                              " but leaves hold " +
                              std::to_string(leaf_entries) + " entries");
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return Status::Corruption("a page is referenced by two parents");
  }
  return Status::OK();
}

Status RStarTree::ValidateRecursive(PageId page, bool is_root,
                                    int expected_level,
                                    const Rect* expected_mbr,
                                    uint64_t* leaf_entries,
                                    std::vector<PageId>* seen) const {
  seen->push_back(page);
  Node node;
  KCPQ_RETURN_IF_ERROR(ReadNode(page, expected_level, &node));
  if (node.entries.size() > max_entries_) {
    return Status::Corruption("overfull node");
  }
  if (is_root) {
    if (!node.IsLeaf() && node.entries.size() < 2) {
      return Status::Corruption("internal root with fewer than 2 entries");
    }
  } else if (node.entries.size() < min_entries_) {
    return Status::Corruption("underfull non-root node: " +
                              std::to_string(node.entries.size()) + " < " +
                              std::to_string(min_entries_));
  }
  if (expected_mbr != nullptr && !(node.ComputeMbr() == *expected_mbr)) {
    return Status::Corruption("parent entry MBR is not tight");
  }
  if (node.IsLeaf()) {
    if (!has_extended_objects()) {
      for (const Entry& e : node.entries) {
        for (int d = 0; d < kDims; ++d) {
          if (e.rect.lo[d] != e.rect.hi[d]) {
            return Status::Corruption(
                "non-degenerate leaf entry rect in a point tree");
          }
        }
      }
    }
    *leaf_entries += node.entries.size();
    return Status::OK();
  }
  for (const Entry& e : node.entries) {
    KCPQ_RETURN_IF_ERROR(ValidateRecursive(e.id, /*is_root=*/false,
                                           expected_level - 1, &e.rect,
                                           leaf_entries, seen));
  }
  return Status::OK();
}

}  // namespace kcpq
