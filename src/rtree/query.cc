// Range query, best-first K-nearest-neighbor query, and level statistics.

#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#include "rtree/rtree.h"

namespace kcpq {

Status RStarTree::RangeQuery(const Rect& range, std::vector<Entry>* out) const {
  // Iterative DFS; a leaf entry's degenerate rect intersects `range` iff the
  // point lies inside it.
  std::vector<std::pair<PageId, int>> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const auto [page, level] = stack.back();
    stack.pop_back();
    NodeImagePtr node;
    KCPQ_RETURN_IF_ERROR(ReadNode(page, level, &node));
    for (const Entry& e : node->entries()) {
      if (!range.Intersects(e.rect)) continue;
      if (node->IsLeaf()) {
        out->push_back(e);
      } else {
        stack.emplace_back(e.id, level - 1);
      }
    }
  }
  return Status::OK();
}

Status RStarTree::NearestNeighbors(const Point& query, size_t k,
                                   std::vector<Neighbor>* out,
                                   Metric metric) const {
  if (k == 0) return Status::OK();
  // Best-first search: a single priority queue over subtrees (keyed by
  // MINDIST to their MBR) and leaf entries (keyed by exact distance). When
  // an entry reaches the front, no unexplored item can beat it. Keys live
  // in the metric's power space (see geometry/minkowski.h).
  struct Item {
    double dist2;
    bool is_node;
    PageId page;   // when is_node
    int level;     // when is_node
    Entry entry;   // when !is_node
  };
  const Rect query_rect = Rect::FromPoint(query);
  auto cmp = [](const Item& a, const Item& b) { return a.dist2 > b.dist2; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> queue(cmp);
  queue.push(Item{0.0, true, root_page_, height_ - 1, Entry{}});
  while (!queue.empty()) {
    const Item item = queue.top();
    queue.pop();
    if (!item.is_node) {
      out->push_back(Neighbor{item.entry, PowToDistance(item.dist2, metric)});
      if (out->size() == k) return Status::OK();
      continue;
    }
    NodeImagePtr node;
    KCPQ_RETURN_IF_ERROR(ReadNode(item.page, item.level, &node));
    for (const Entry& e : node->entries()) {
      // MINDIST to the entry rect: exact point distance for point data,
      // nearest-face distance for extended objects and subtree MBRs.
      const double key = MinMinDistPow(query_rect, e.rect, metric);
      if (node->IsLeaf()) {
        queue.push(Item{key, false, kInvalidPageId, 0, e});
      } else {
        queue.push(Item{key, true, e.id, item.level - 1, Entry{}});
      }
    }
  }
  return Status::OK();  // fewer than k points in the tree
}

Status RStarTree::CollectLevelGeometry(
    std::vector<LevelGeometry>* out) const {
  out->assign(height_, LevelGeometry{});
  for (int i = 0; i < height_; ++i) (*out)[i].level = i;
  // Gather every node's MBR per level, then the O(n^2) overlap sums.
  std::vector<std::vector<Rect>> mbrs(height_);
  {
    Node root;
    KCPQ_RETURN_IF_ERROR(ReadNode(root_page_, height_ - 1, &root));
    mbrs[root.level].push_back(root.ComputeMbr());
  }
  std::vector<std::pair<PageId, int>> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const auto [page, level] = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadNode(page, level, &node));
    if (node.IsLeaf()) continue;
    for (const Entry& e : node.entries) {
      mbrs[node.level - 1].push_back(e.rect);
      stack.emplace_back(e.id, level - 1);
    }
  }
  for (int level = 0; level < height_; ++level) {
    LevelGeometry& geometry = (*out)[level];
    const std::vector<Rect>& rects = mbrs[level];
    for (size_t i = 0; i < rects.size(); ++i) {
      geometry.total_area += rects[i].Area();
      for (size_t j = i + 1; j < rects.size(); ++j) {
        geometry.pairwise_overlap_area +=
            IntersectionArea(rects[i], rects[j]);
      }
    }
  }
  return Status::OK();
}

Status RStarTree::ScanLeaves(
    const std::function<bool(const Node& leaf)>& visit,
    QueryContext* ctx) const {
  std::vector<std::pair<PageId, int>> stack = {{root_page_, height_ - 1}};
  Node leaf;
  while (!stack.empty()) {
    const auto [page, level] = stack.back();
    stack.pop_back();
    NodeImagePtr node;
    KCPQ_RETURN_IF_ERROR(ReadNode(page, level, &node, ctx));
    if (node->IsLeaf()) {
      leaf.entries.assign(node->entries().begin(), node->entries().end());
      if (!visit(leaf)) return Status::OK();
      continue;
    }
    for (const Entry& e : node->entries()) stack.emplace_back(e.id, level - 1);
  }
  return Status::OK();
}

Status RStarTree::CollectLevelStats(std::vector<LevelStats>* out) const {
  out->assign(height_, LevelStats{});
  for (int i = 0; i < height_; ++i) (*out)[i].level = i;
  std::vector<std::pair<PageId, int>> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const auto [page, level] = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadNode(page, level, &node));
    LevelStats& stats = (*out)[node.level];
    ++stats.nodes;
    stats.entries += node.entries.size();
    if (!node.IsLeaf()) {
      for (const Entry& e : node.entries) stack.emplace_back(e.id, level - 1);
    }
  }
  return Status::OK();
}

}  // namespace kcpq
