// Distance range join (ε-join): report every pair (p, q) in P x Q with
// dist(p, q) <= epsilon. The fixed-radius sibling of the K-CPQ: it is the
// paper's EXH traversal (nested-loop candidates, prune MINMINDIST > T)
// with T fixed at ε^p and no limit on K, so it runs on the K-CPQ state
// machine (cpq/resumable.h) under QueryObjective::DistanceJoin, and parks
// on a miss like every other query when driven by a waker.

#ifndef KCPQ_CPQ_DISTANCE_JOIN_H_
#define KCPQ_CPQ_DISTANCE_JOIN_H_

#include <memory>
#include <vector>

#include "common/resumable.h"
#include "cpq/cpq.h"

namespace kcpq {

class ResumableCpqQuery;  // cpq/resumable.h

struct DistanceJoinOptions {
  Metric metric = Metric::kL2;
  HeightStrategy height_strategy = HeightStrategy::kFixAtRoot;
  /// Self-join semantics as in SelfKClosestPairs: both trees are the same,
  /// reflexive pairs skipped, each unordered pair reported once.
  bool self_join = false;
  /// Safety valve: fail with ResourceExhausted instead of materializing
  /// more result pairs than this (an over-large epsilon can ask for the
  /// whole cross product). 0 = unlimited.
  uint64_t max_results = 0;
  /// Leaf node-pair combination strategy (see CpqOptions::leaf_kernel);
  /// the sweep skips pairs whose sweep-axis separation alone exceeds ε.
  LeafKernel leaf_kernel = LeafKernel::kPlaneSweep;

  /// Lifecycle limits (see CpqOptions::control). A stopped join returns OK
  /// with the pairs found so far; quality.guaranteed_lower_bound certifies
  /// that every *unreported* qualifying pair is at least that far apart
  /// (so is_exact holds when the frontier lies beyond ε), and
  /// quality.missing_pair_bound caps how many qualifying pairs the partial
  /// result can be missing (the sum of pair capacities over deferred node
  /// pairs with MINMINDIST <= ε). The memory budget meters the
  /// materialized results plus the traversal's candidate lists.
  QueryControl control;

  /// Optional externally-owned QueryContext; supersedes `control` and adds
  /// buffer-page accounting (see CpqOptions::context).
  QueryContext* context = nullptr;
};

/// All pairs within `epsilon` (a true distance, not power-space), in
/// ascending distance order. `epsilon` must be >= 0.
Result<std::vector<PairResult>> DistanceRangeJoin(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options = {}, CpqStats* stats = nullptr);

/// The same join as a resumable task (cpq/resumable.h): Step() it to
/// kDone, then read status() and TakeResults(). An empty waker runs it
/// inline, as DistanceRangeJoin does; a scheduler's waker parks it on
/// each miss. `epsilon` must be >= 0; `stats` may be null. The trees,
/// `stats` and `options.context` must outlive the task.
std::unique_ptr<ResumableCpqQuery> NewDistanceJoinTask(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options, CpqStats* stats, Waker waker);

/// Brute-force reference (tests/benches).
std::vector<PairResult> BruteForceDistanceRangeJoin(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, double epsilon,
    bool self_join = false, Metric metric = Metric::kL2);

}  // namespace kcpq

#endif  // KCPQ_CPQ_DISTANCE_JOIN_H_
