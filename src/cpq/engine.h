// Internal engine shared by the five CPQ algorithms. Not part of the
// public API; include cpq/cpq.h instead.
//
// CpqEngine holds one query's state (pruning bound T, result heap,
// certificate, counters) and the kernels every algorithm is built from:
// reading a node pair's bookkeeping, the leaf kernel, candidate
// generation, bound tightening, pruning and the stop / frontier rules.
// It has no traversal of its own: the one traversal of all five
// algorithms (plus self, farthest and rect queries, and the ε-join) is
// the state machine in cpq/resumable.h, which drives these kernels
// whether it runs inline (KClosestPairs) or on the completion-driven
// scheduler.
#ifndef KCPQ_CPQ_ENGINE_H_
#define KCPQ_CPQ_ENGINE_H_

#include <cstdint>
#include <vector>

#include "cpq/cpq.h"
#include "cpq/leaf_kernel.h"
#include "cpq/result_heap.h"
#include "cpq/tie.h"
#include "rtree/rtree.h"

namespace kcpq {

class ResumableCpqQuery;

namespace cpq_internal {

/// A node of one tree as seen by the traversal: location plus the facts the
/// pruning math needs without reading the page.
struct NodeRef {
  PageId page = kInvalidPageId;
  int level = 0;
  Rect mbr;
  /// Lower bound on the number of points in the subtree (minimum-fill
  /// argument m^(level+1); exact-count-based for nodes already read).
  uint64_t min_points = 1;
  /// Upper bound on the points beneath (max-fill argument M^(level+1);
  /// exact-count-based for nodes already read). Feeds the per-rank anytime
  /// certificate: a frontier pair can hide at most
  /// max_points_p * max_points_q undiscovered point pairs.
  uint64_t max_points = 1;
};

/// A candidate pair of subtrees with its precomputed ordering keys.
struct Candidate {
  NodeRef p;
  NodeRef q;
  /// Objective key of the pair (cpq/objective.h): MINMINDIST power for
  /// minimizing families, -MAXMAXDIST power for kFarthest. Smaller =
  /// more promising for every family.
  double key = 0.0;
  double tie[kMaxTieChain] = {0, 0, 0, 0, 0};
  uint64_t min_pairs = 1;  // lower bound on point pairs beneath
  uint64_t max_pairs = 1;  // upper bound on point pairs beneath
};

/// Strict weak order: ascending key (the objective's pop order), then the
/// tie chain, then page ids (full determinism).
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.key != b.key) return a.key < b.key;
    for (size_t i = 0; i < kMaxTieChain; ++i) {
      if (a.tie[i] != b.tie[i]) return a.tie[i] < b.tie[i];
    }
    if (a.p.page != b.p.page) return a.p.page < b.p.page;
    return a.q.page < b.q.page;
  }
};

/// The HEAP pop order: a min-heap through the reversed CandidateLess.
struct CandidateGreater {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return CandidateLess()(b, a);
  }
};

/// EXPLAIN level of a node pair: the deeper side (leaves are level 0).
inline int PairLevel(int level_p, int level_q) {
  return level_p > level_q ? level_p : level_q;
}

/// Which side(s) of a node pair to descend (Section 3.7).
enum class DescendChoice { kBoth, kFirstOnly, kSecondOnly, kLeaves };

DescendChoice ChooseDescend(int level_p, int level_q, HeightStrategy strategy);

/// One K-CPQ execution's state and kernels, owned and driven by
/// ResumableCpqQuery (cpq/resumable.h).
class CpqEngine {
 public:
  /// `objective` is the family's policy (cpq/objective.h); the ε-distance
  /// join passes QueryObjective::DistanceJoin, every other query the
  /// objective its options name.
  CpqEngine(const RStarTree& tree_p, const RStarTree& tree_q,
            const CpqOptions& options, const QueryObjective& objective,
            CpqStats* stats);

 private:
  /// The traversal (cpq/resumable.h) drives the kernels below and reads
  /// and writes the control state directly.
  friend class ::kcpq::ResumableCpqQuery;

  /// A node pair's bookkeeping once both nodes are in hand: counts the
  /// pair, refreshes the refs from the nodes and records the visit.
  void OnPairRead(NodeRef* ref_p, NodeRef* ref_q, const NodeImage& node_p,
                  const NodeImage& node_q);

  /// Brute-force distance scan of two leaves; feeds the result heap and
  /// tightens T. `same_node` drives the self-join duplicate rules. Fails
  /// only when an ε-join finds more pairs than its max_results allows.
  Status ProcessLeaves(const NodeImage& node_p, const NodeImage& node_q,
                       bool same_node);

  /// The leaf kernel both objectives share: applies the self-join and
  /// eligibility rules and counts each distance, then hands every pair's
  /// key to `admit`, which returns false to abort the scan. The sweep
  /// skips pairs whose axis gap exceeds bound() (or reaches it, unless
  /// `strict`).
  template <typename BoundFn, typename AdmitFn>
  void ScanLeaves(const NodeImage& node_p, const NodeImage& node_q,
                  bool same_node, bool strict, BoundFn bound, AdmitFn admit);

  /// Generates the child pairs of (ref_p, ref_q) according to the descend
  /// choice, with minmin / tie / min_pairs filled in. HEAP and STD sweep
  /// the children (SweepsCandidates) and never build a pair whose axis gap
  /// alone exceeds T: it counts as generated and pruned right here.
  void GenerateCandidates(const NodeRef& ref_p, const NodeImage& node_p,
                          const NodeRef& ref_q, const NodeImage& node_q,
                          DescendChoice choice, std::vector<Candidate>* out);

  /// Expansion step of the recursive algorithms (kExhaustive / kSimple /
  /// kSortedDistances / kNaive): generates the pair's candidates, tightens
  /// T and orders them (STD).
  void ExpandRecursive(const NodeRef& ref_p, const NodeImage& node_p,
                         const NodeRef& ref_q, const NodeImage& node_q,
                         DescendChoice choice,
                         std::vector<Candidate>* candidates);

  /// Expansion step of kHeap: generates the pair's candidates
  /// into `scratch`, tightens T and pushes the survivors onto `heap`.
  void ExpandHeap(const NodeRef& ref_p, const NodeImage& node_p,
                  const NodeRef& ref_q, const NodeImage& node_q,
                  DescendChoice choice, std::vector<Candidate>* scratch,
                  std::vector<Candidate>* heap);

  /// Counts `count` candidates cut by Inequality 1 (key > T) at `level_p`
  /// / `level_q`; `key` is the cut candidate's key, or for a group of
  /// sweep-skipped pairs the bound they exceeded.
  void NotePruned(int level_p, int level_q, double key, uint64_t count);

  /// Tightens T from Inequality-2-style guarantees over `candidates`.
  /// Minimizing: MINMAXDIST for K = 1, MAXMAXDIST count accumulation for
  /// K > 1. kFarthest: the mirror — MINMINDIST lower-bounds every pair
  /// beneath a candidate, so accumulating candidates by descending
  /// MINMINDIST until min_pairs reaches K bounds the K-th farthest
  /// distance from below. No-op when the objective forbids capacity-based
  /// tightening (kRangeClosest: counted pairs may lie outside the rect).
  void TightenBoundFromCandidates(const std::vector<Candidate>& candidates);

  /// Polls the QueryContext (at node-pair granularity). Once a stop cause
  /// is latched it stays latched — the traversal switches from expanding
  /// the frontier to draining it into the certificate.
  bool ShouldStop(uint64_t extra_bytes);

  /// Records an unexpanded node pair: its key (the minimum over all of
  /// them certifies that no undiscovered pair can beat it — "closer" for
  /// minimizing families, "farther" for kFarthest) and its pair capacity,
  /// which refines the certificate per rank — or, for the ε-join, counts
  /// toward the pairs the result may be missing when the pair could still
  /// hold one within ε.
  void FoldFrontier(double key, uint64_t max_pairs) {
    frontier_min_pow_ = std::min(frontier_min_pow_, key);
    max_pairs = std::max<uint64_t>(max_pairs, 1);
    certificate_.Add(key, max_pairs);
    if (objective_.distance_join() && key <= objective_.epsilon_pow()) {
      missing_pairs_ = SaturatingAdd(missing_pairs_, max_pairs);
    }
  }

  /// Reports a strict improvement of the pruning bound T to the attached
  /// profile / trace; no-op (one compare) when neither wants it.
  void NoteBoundImprovement();

  /// The query's epilogue: fills the quality certificate from the latched
  /// stop cause / frontier state and records the query-summary trace
  /// event.
  void FinalizeQualityAndTrace();

  /// True when candidate generation sweeps child pairs. Only for the
  /// algorithms whose visit order is a strict total order on the
  /// candidates (kHeap pops by CandidateLess, kSortedDistances sorts by
  /// it), so generation order cannot change them, and only for
  /// minimizing objectives (the axis gap must lower-bound the key).
  bool SweepsCandidates() const {
    return (options_.algorithm == CpqAlgorithm::kHeap ||
            options_.algorithm == CpqAlgorithm::kSortedDistances) &&
           objective_.SweepUsable();
  }

  /// True for algorithms that prune with MINMINDIST (all but kNaive).
  bool Prunes() const { return options_.algorithm != CpqAlgorithm::kNaive; }
  /// True for algorithms that tighten T beyond found pairs.
  bool TightensBound() const {
    switch (options_.algorithm) {
      case CpqAlgorithm::kSimple:
      case CpqAlgorithm::kSortedDistances:
      case CpqAlgorithm::kHeap:
        return true;
      default:
        return false;
    }
  }

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  const CpqOptions& options_;
  CpqStats* stats_;  // never null (engine owns a local fallback)
  CpqStats local_stats_;

  TieContext tie_context_;
  /// The query's objective policy (family + metric + optional rect); every
  /// key, prune test, and certificate conversion goes through it.
  QueryObjective objective_;
  ResultHeap results_;
  /// Pruning bound T (key space). Upper bound on the final K-th key.
  double bound_;
  /// Scratch for the capacity accumulation of TightenBoundFromCandidates
  /// (avoids reallocating per node).
  std::vector<std::pair<double, uint64_t>> maxmax_scratch_;
  /// Sweep orders of the rect-eligible children (kRangeClosest only).
  std::vector<uint32_t> eligible_p_;
  std::vector<uint32_t> eligible_q_;

  // --- lifecycle control state ---
  /// The query's context: `options.context` when the caller provided one,
  /// otherwise `local_context_` built from `options.control`. All stop
  /// polls and resource charges go through it.
  QueryContext local_context_;
  QueryContext* context_;
  /// Observability sinks borrowed from the context (null when the caller
  /// attached none — the common case, which must stay zero-cost). The
  /// profile feeds the EXPLAIN per-level pruning table; the trace records
  /// descend/heap/prune/leaf events (obs/explain.h, obs/trace.h).
  obs::PruningProfile* profile_;
  obs::TraceBuffer* trace_;
  /// False only for uncontrolled queries with no external context — the
  /// zero-overhead fast path (no polls, no page charging).
  bool accounting_;
  /// Logical node reads so far (2 per node pair); the budgeted quantity.
  uint64_t node_accesses_ = 0;
  /// Live candidate-state bytes (recursion frames' candidate vectors; the
  /// kHeap pair heap is accounted separately via ShouldStop's extra).
  uint64_t candidate_bytes_ = 0;
  /// Latched stop cause; kNone while the query is allowed to expand.
  StopCause stop_ = StopCause::kNone;
  /// Min key over node pairs left unexpanded by a stop; +infinity when
  /// the search space was exhausted. (Historically named after the
  /// minimizing families' MINMINDIST power; for kFarthest it is the
  /// negated MAXMAXDIST power, i.e. still the most optimistic frontier.)
  double frontier_min_pow_ = std::numeric_limits<double>::infinity();
  /// Per-rank refinement of the frontier bound (see FrontierCertificate).
  FrontierCertificate certificate_;
  /// ε-join only: saturating sum of the pair capacities of frontier pairs
  /// with key <= ε^p (QueryQuality::missing_pair_bound).
  uint64_t missing_pairs_ = 0;
  /// Last bound_ value reported to the profile/trace (power space).
  double reported_bound_ = std::numeric_limits<double>::infinity();
};

/// M^(level+1): saturating upper bound on points in a subtree rooted at
/// `level`; level -1 (a leaf's entry) is a single point.
uint64_t MaxPointsAtLevel(int level, uint64_t max_entries);

/// Lower bound on points under a node that has been read.
uint64_t MinPointsOfNode(const NodeImage& node, uint64_t min_entries);

/// Upper bound on points under a node that has been read (saturating).
uint64_t MaxPointsOfNode(const NodeImage& node, uint64_t max_entries);

/// Folds a finished query's stats into the process-wide metrics registry.
/// `seconds < 0` means the caller skipped timing (metrics disabled).
void FoldCpqMetrics(const CpqStats& s, double seconds, QueryFamily family);

/// True when per-query timing should run: metrics compiled in and enabled.
bool MetricsTimingOn();

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_ENGINE_H_
