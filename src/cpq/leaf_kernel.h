// Plane-sweep pair kernel, shared by every leaf/leaf (and object/object)
// combination loop in the query engines (cpq/engine.cc, distance_join.cc,
// hs/hs.cc, brute.cc) and by the HEAP / STD child-pair generation
// (engine.cc, GenerateCandidates).
//
// Idea (classic in the closest-pair literature — the optimized
// divide-and-conquer of Pereira & Lobo and the plane-sweep KCPQ variants
// that followed the paper): sort both entry sets along one axis and visit
// pairs in sweep order. For a reference entry `r` and the other set's
// entries in ascending lower-coordinate order, the axis separation
// `other.lo - r.hi` is non-decreasing, and its power-space value
// (AxisGapPow) lower-bounds the pair's full distance under every Minkowski
// metric. So the first time the axis separation alone exceeds the pruning
// bound, the scan for `r` stops: every remaining pair is provably farther
// than the bound, without computing a single full distance.
//
// The kernel sorts nothing itself: each side comes already in ascending
// lower-coordinate order on the sweep axis — a decoded node through its
// image's per-axis order (rtree/node.h, built once per buffer residency),
// a point set sorted once by its caller.
//
// The kernel only *enumerates* the surviving pairs; the caller's visitor
// keeps its own filtering / counting / result handling, which is what makes
// one template serve four engines with different semantics. The visitor
// returns false to abort the whole sweep (used by the ε-join's max_results
// guard). The bound is re-read through a callable on every skip test, so a
// bound tightened by the visitor mid-sweep prunes the remaining pairs of
// the same leaf pair — strictly better than the nested loop's behavior.
//
// Pair coverage: each cross pair (a, b) is visited exactly once, by
// whichever side enters the sweep first (smaller lo on the sweep axis; ties
// go to `a`). Orientation is preserved: the visitor always receives
// (a-item, b-item) regardless of which side was the reference.
//
// Soundness is *minimizing-only*: the skip relies on AxisGapPow
// lower-bounding the pair's key, which holds when smaller distance means
// smaller key (closest / range-closest). Farthest-pair queries negate
// MAXMAXDIST, breaking that monotonicity, so QueryObjective::SweepUsable()
// gates every call site back to the nested loop for that family.

#ifndef KCPQ_CPQ_LEAF_KERNEL_H_
#define KCPQ_CPQ_LEAF_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "geometry/minkowski.h"
#include "geometry/rect.h"
#include "rtree/node.h"

namespace kcpq {
namespace cpq_internal {

/// The axis along which the union of both sides' extents is largest —
/// maximizing spread maximizes the chance the axis test fires early.
inline int SweepAxis(const Rect& extent_a, const Rect& extent_b) {
  int best = 0;
  double best_spread = -1.0;
  for (int d = 0; d < kDims; ++d) {
    const double spread = std::max(extent_a.hi[d], extent_b.hi[d]) -
                          std::min(extent_a.lo[d], extent_b.lo[d]);
    if (spread > best_spread) {
      best_spread = spread;
      best = d;
    }
  }
  return best;
}

/// Entries visited through a permutation: `entries[order[i]]`.
struct SortedEntries {
  size_t size() const { return order.size(); }
  const Entry& operator[](size_t i) const { return entries[order[i]]; }

  const Entry* entries;
  std::span<const uint32_t> order;
};

/// A decoded node's entries in ascending rect.lo[axis] order.
inline SortedEntries SortedBy(const NodeImage& node, int axis) {
  return SortedEntries{node.entries().data(), node.order(axis)};
}

inline const Rect& EntryRect(const Entry& e) { return e.rect; }

/// Sweeps `a` x `b` and calls `visit(a_item, b_item)` for every pair whose
/// sweep-axis separation does not already violate `bound()` (power space).
/// `a` and `b` are random-access sequences (size(), operator[]) in
/// ascending rect_of(item).lo[axis] order. `strict` selects the violation
/// test: with strict = false a pair is skipped when AxisGapPow >= bound
/// (for engines that discard distances >= bound, like the K-CPQ result
/// heap); with strict = true only when AxisGapPow > bound (for the
/// ε-join, whose results include distance == epsilon exactly, and for
/// candidate pruning, which keeps key == T). `visit` returns false to
/// abort. Returns the number of pairs visited, so callers can account
/// skips as |a|·|b| − visited.
template <typename SeqA, typename SeqB, typename RectOf, typename BoundFn,
          typename VisitFn>
uint64_t PlaneSweepPairs(const SeqA& a, const SeqB& b, int axis,
                         Metric metric, bool strict, RectOf rect_of,
                         BoundFn bound, VisitFn visit) {
  // The axis separation between the reference and a later entry of the
  // other list: positive only when the later entry starts past the
  // reference's upper face, in which case it is the exact axis gap.
  const auto beyond_bound = [&](double ref_hi, const auto& other) {
    const double gap = rect_of(other).lo[axis] - ref_hi;
    if (gap <= 0.0) return false;
    const double axis_pow = AxisGapPow(gap, metric);
    const double t = bound();
    return strict ? axis_pow > t : axis_pow >= t;
  };

  uint64_t visited = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (rect_of(a[i]).lo[axis] <= rect_of(b[j]).lo[axis]) {
      const auto& ref = a[i];
      const double ref_hi = rect_of(ref).hi[axis];
      for (size_t jj = j; jj < b.size(); ++jj) {
        if (beyond_bound(ref_hi, b[jj])) break;
        ++visited;
        if (!visit(ref, b[jj])) return visited;
      }
      ++i;
    } else {
      const auto& ref = b[j];
      const double ref_hi = rect_of(ref).hi[axis];
      for (size_t ii = i; ii < a.size(); ++ii) {
        if (beyond_bound(ref_hi, a[ii])) break;
        ++visited;
        if (!visit(a[ii], ref)) return visited;
      }
      ++j;
    }
  }
  return visited;
}

/// PlaneSweepPairs over the entries of two decoded nodes, on the axis
/// SweepAxis picks from their MBRs.
template <typename BoundFn, typename VisitFn>
uint64_t SweepNodePairs(const NodeImage& a, const NodeImage& b, Metric metric,
                        bool strict, BoundFn bound, VisitFn visit) {
  const int axis = SweepAxis(a.mbr(), b.mbr());
  return PlaneSweepPairs(SortedBy(a, axis), SortedBy(b, axis), axis, metric,
                         strict, EntryRect, bound, visit);
}

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_LEAF_KERNEL_H_
