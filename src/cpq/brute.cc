#include "cpq/brute.h"

#include <algorithm>
#include <cmath>

#include "cpq/leaf_kernel.h"
#include "cpq/result_heap.h"

namespace kcpq {

namespace {

/// A point dressed up with its degenerate rect so the shared sweep kernel
/// (which speaks rects) can enumerate point pairs.
struct SweepPoint {
  Rect rect;
  Point pt;
  uint64_t id = 0;
};

std::vector<SweepPoint> ToSweepPoints(
    const std::vector<std::pair<Point, uint64_t>>& items, Rect* extent) {
  std::vector<SweepPoint> out;
  out.reserve(items.size());
  *extent = Rect::Empty();
  for (const auto& [pt, id] : items) {
    out.push_back(SweepPoint{Rect::FromPoint(pt), pt, id});
    extent->Expand(pt);
  }
  return out;
}

}  // namespace

std::vector<PairResult> BruteForceKClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, size_t k,
    bool self_join, Metric metric, LeafKernel kernel,
    const QueryControl& control, QueryQuality* quality,
    QueryContext* context) {
  ResultHeap heap(k, QueryObjective(QueryFamily::kClosest, metric));
  StopCause stop = StopCause::kNone;
  const QueryControl& effective =
      context != nullptr ? context->control() : control;
  // Stop granularity: one outer point (= |q| distance tests) per poll.
  // Node budgets are meaningless here (no tree is read), so only the
  // cancel / deadline limits are honored.
  uint64_t outer = 0;
  const auto should_stop = [&] {
    if (stop != StopCause::kNone) return true;
    if (effective.IsUnlimited()) return false;
    stop = effective.Check(0, 0);
    if (stop == StopCause::kNodeBudget || stop == StopCause::kMemoryBudget) {
      stop = StopCause::kNone;
    }
    return stop != StopCause::kNone;
  };
  if (kernel == LeafKernel::kPlaneSweep) {
    Rect extent_p, extent_q;
    std::vector<SweepPoint> sp = ToSweepPoints(p, &extent_p);
    std::vector<SweepPoint> sq = ToSweepPoints(q, &extent_q);
    const int axis = cpq_internal::SweepAxis(extent_p, extent_q);
    const auto by_lo = [axis](const SweepPoint& a, const SweepPoint& b) {
      return a.rect.lo[axis] < b.rect.lo[axis];
    };
    std::sort(sp.begin(), sp.end(), by_lo);
    std::sort(sq.begin(), sq.end(), by_lo);
    cpq_internal::PlaneSweepPairs(
        sp, sq, axis, metric, /*strict=*/false,
        [](const SweepPoint& it) -> const Rect& { return it.rect; },
        [&] { return heap.Bound(); },
        [&](const SweepPoint& a, const SweepPoint& b) {
          if (++outer % 1024 == 0 && should_stop()) return false;
          if (!self_join || a.id < b.id) {
            heap.Offer(PointDistancePow(a.pt, b.pt, metric), a.pt, b.pt, a.id,
                       b.id);
          }
          return true;
        });
  } else {
    for (const auto& [pp, pid] : p) {
      if (should_stop()) break;
      for (const auto& [qq, qid] : q) {
        if (self_join && pid >= qid) continue;
        heap.Offer(PointDistancePow(pp, qq, metric), pp, qq, pid, qid);
      }
    }
  }
  if (quality != nullptr) {
    *quality = QueryQuality{};
    quality->stop_cause = stop;
    quality->pairs_found = heap.size();
    if (stop != StopCause::kNone) {
      quality->guaranteed_lower_bound = 0.0;  // a scan certifies nothing
      quality->is_exact = false;
    }
  }
  return std::move(heap).Extract();
}

std::vector<PairResult> BruteForceSemiClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q) {
  std::vector<PairResult> out;
  if (q.empty()) return out;
  out.reserve(p.size());
  for (const auto& [pp, pid] : p) {
    ResultHeap best(1);
    for (const auto& [qq, qid] : q) {
      best.Offer(SquaredDistance(pp, qq), pp, qq, pid, qid);
    }
    std::vector<PairResult> one = std::move(best).Extract();
    out.push_back(one.front());
  }
  SortByDistanceThenIds(&out);  // p_ids are distinct: one pair per point
  return out;
}

}  // namespace kcpq
