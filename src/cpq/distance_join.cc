#include "cpq/distance_join.h"

#include <limits>
#include <utility>

#include "cpq/resumable.h"

namespace kcpq {

std::unique_ptr<ResumableCpqQuery> NewDistanceJoinTask(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options, CpqStats* stats, Waker waker) {
  CpqOptions cpq;
  cpq.algorithm = CpqAlgorithm::kExhaustive;
  // The result heap doubles as the max_results valve: it holds one pair
  // more than allowed, and filling it fails the join.
  const size_t unlimited = std::numeric_limits<size_t>::max();
  cpq.k = options.max_results > 0 && options.max_results < unlimited
              ? options.max_results + 1
              : unlimited;
  cpq.metric = options.metric;
  cpq.height_strategy = options.height_strategy;
  cpq.self_join = options.self_join;
  cpq.leaf_kernel = options.leaf_kernel;
  cpq.control = options.control;
  cpq.context = options.context;
  return std::make_unique<ResumableCpqQuery>(
      tree_p, tree_q, std::move(cpq),
      QueryObjective::DistanceJoin(options.metric,
                                   DistanceToPow(epsilon, options.metric)),
      stats, std::move(waker));
}

Result<std::vector<PairResult>> DistanceRangeJoin(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options, CpqStats* stats) {
  if (epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  // An empty waker runs the whole query in its first Step().
  const std::unique_ptr<ResumableCpqQuery> task =
      NewDistanceJoinTask(tree_p, tree_q, epsilon, options, stats, Waker());
  task->Step();
  KCPQ_RETURN_IF_ERROR(task->status());
  return task->TakeResults();
}

std::vector<PairResult> BruteForceDistanceRangeJoin(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, double epsilon,
    bool self_join, Metric metric) {
  std::vector<PairResult> out;
  const double epsilon_pow = DistanceToPow(epsilon, metric);
  for (const auto& [pp, pid] : p) {
    for (const auto& [qq, qid] : q) {
      if (self_join && pid >= qid) continue;
      const double d = PointDistancePow(pp, qq, metric);
      if (d > epsilon_pow) continue;
      out.push_back(PairResult{pp, qq, pid, qid, PowToDistance(d, metric)});
    }
  }
  SortByDistanceThenIds(&out);
  return out;
}

}  // namespace kcpq
