#include "cpq/cpq.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>

#include "cpq/engine.h"
#include "obs/kcpq_metrics.h"

namespace kcpq {

namespace {

/// Folds a finished query's stats into the process-wide metrics registry.
/// `seconds < 0` means the caller skipped timing (metrics disabled).
void FoldCpqMetrics(const CpqStats& s, double seconds, QueryFamily family) {
#if KCPQ_METRICS
  if (!obs::Enabled()) return;
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.cpq_queries_total->Increment();
  m.cpq_node_pairs_total->Add(s.node_pairs_processed);
  m.cpq_candidates_generated_total->Add(s.candidate_pairs_generated);
  m.cpq_candidates_pruned_total->Add(s.candidate_pairs_pruned);
  m.cpq_distance_computations_total->Add(s.point_distance_computations);
  m.cpq_leaf_pairs_skipped_total->Add(s.leaf_pairs_skipped);
  m.cpq_query_node_accesses->Observe(static_cast<double>(s.node_accesses));
  if (seconds >= 0.0) {
    m.cpq_query_seconds->Observe(seconds);
    FamilyQuerySeconds(family)->Observe(seconds);
  }
#else
  (void)s;
  (void)seconds;
  (void)family;
#endif
}

/// Steady-clock seconds since `start`, or -1 when timing was skipped.
double SecondsSince(
    const std::chrono::steady_clock::time_point& start, bool timed) {
  if (!timed) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Metrics-enabled queries pay one clock read at entry and exit; disabled
/// ones skip the clock entirely (bench_trace measures exactly this path).
bool MetricsTimingOn() {
#if KCPQ_METRICS
  return obs::Enabled();
#else
  return false;
#endif
}

}  // namespace

const char* CpqAlgorithmName(CpqAlgorithm a) {
  switch (a) {
    case CpqAlgorithm::kNaive:
      return "NAIVE";
    case CpqAlgorithm::kExhaustive:
      return "EXH";
    case CpqAlgorithm::kSimple:
      return "SIM";
    case CpqAlgorithm::kSortedDistances:
      return "STD";
    case CpqAlgorithm::kHeap:
      return "HEAP";
  }
  return "?";
}

const char* QueryFamilyName(QueryFamily f) {
  switch (f) {
    case QueryFamily::kClosest:
      return "k-closest-pairs";
    case QueryFamily::kFarthest:
      return "k-farthest-pairs";
    case QueryFamily::kRangeClosest:
      return "k-range-closest-pairs";
  }
  return "?";
}

obs::Histogram* FamilyQuerySeconds(QueryFamily f) {
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  switch (f) {
    case QueryFamily::kClosest:
      return m.query_seconds_closest;
    case QueryFamily::kFarthest:
      return m.query_seconds_farthest;
    case QueryFamily::kRangeClosest:
      return m.query_seconds_rcp;
  }
  return m.query_seconds_closest;
}

const char* LeafKernelName(LeafKernel k) {
  switch (k) {
    case LeafKernel::kNestedLoop:
      return "NESTED";
    case LeafKernel::kPlaneSweep:
      return "SWEEP";
  }
  return "?";
}

Result<std::vector<PairResult>> KClosestPairs(const RStarTree& tree_p,
                                              const RStarTree& tree_q,
                                              const CpqOptions& options,
                                              CpqStats* stats) {
  const bool timed = MetricsTimingOn();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  CpqStats local;
  CpqStats* s = stats != nullptr ? stats : &local;
  cpq_internal::CpqEngine engine(tree_p, tree_q, options, s);
  std::vector<PairResult> out;
  KCPQ_RETURN_IF_ERROR(engine.Run(&out));
  FoldCpqMetrics(*s, SecondsSince(start, timed), options.family);
  return out;
}

Result<std::vector<PairResult>> SelfKClosestPairs(const RStarTree& tree,
                                                  CpqOptions options,
                                                  CpqStats* stats) {
  options.self_join = true;
  return KClosestPairs(tree, tree, options, stats);
}

namespace {

// Group nearest-neighbor search for one P leaf: a single best-first
// traversal of Q serves every point of the leaf at once. The queue key
// MINMINDIST(leaf MBR, Q subtree MBR) lower-bounds the distance from
// *every* leaf point to everything beneath the subtree, so the traversal
// stops when the key exceeds the worst unresolved best. Amortizes one Q
// descent over up to M points (vs. one descent per point).
// `ctx` is polled per popped Q node; on a stop the leaf's half-built
// best lists are discarded (per-point NN answers are only emitted whole)
// and `*stop` tells the caller to end the scan.
Status GroupNearestForLeaf(const RStarTree& tree_q, const Node& leaf,
                           QueryContext* ctx, bool accounting,
                           CpqStats* stats, std::vector<PairResult>* out,
                           uint64_t* node_accesses, StopCause* stop) {
  struct QueueItem {
    double key;
    PageId page;
    int level;
    bool operator>(const QueueItem& other) const { return key > other.key; }
  };
  const Rect leaf_mbr = leaf.ComputeMbr();
  std::vector<double> best(leaf.entries.size(),
                           std::numeric_limits<double>::infinity());
  std::vector<Entry> best_entry(leaf.entries.size());

  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      queue;
  queue.push(QueueItem{0.0, tree_q.root_page(), tree_q.height() - 1});
  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    const double worst = *std::max_element(best.begin(), best.end());
    if (item.key > worst) break;  // no leaf point can improve
    if (accounting) {
      *stop = ctx->Check(*node_accesses, out->size() * sizeof(PairResult));
      if (*stop != StopCause::kNone) return Status::OK();
    }
    Node node;
    const Status read_status =
        tree_q.ReadNode(item.page, item.level, &node,
                        accounting ? ctx : nullptr);
    if (read_status.code() == StatusCode::kDeadlineExceeded) {
      *stop = StopCause::kDeadline;
      return Status::OK();
    }
    KCPQ_RETURN_IF_ERROR(read_status);
    ++stats->node_pairs_processed;
    ++*node_accesses;
    if (node.IsLeaf()) {
      for (const Entry& eq : node.entries) {
        for (size_t i = 0; i < leaf.entries.size(); ++i) {
          ++stats->point_distance_computations;
          // Entry rects: exact point distance for point data, object
          // MINMINDIST for extended objects.
          const double d2 = MinMinDistSquared(leaf.entries[i].rect, eq.rect);
          if (d2 < best[i]) {
            best[i] = d2;
            best_entry[i] = eq;
          }
        }
      }
      continue;
    }
    for (const Entry& eq : node.entries) {
      const double key = MinMinDistSquared(leaf_mbr, eq.rect);
      // Re-test against the current worst: later insertions are useless
      // once every point has a closer neighbor.
      if (key <= worst) queue.push(QueueItem{key, eq.id, item.level - 1});
    }
  }
  for (size_t i = 0; i < leaf.entries.size(); ++i) {
    Point p_witness, q_witness;
    ClosestPoints(leaf.entries[i].rect, best_entry[i].rect, &p_witness,
                  &q_witness);
    out->push_back(PairResult{p_witness, q_witness, leaf.entries[i].id,
                              best_entry[i].id, std::sqrt(best[i])});
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<PairResult>> SemiClosestPairs(const RStarTree& tree_p,
                                                 const RStarTree& tree_q,
                                                 CpqStats* stats,
                                                 const QueryControl& control,
                                                 QueryContext* context) {
  CpqStats local;
  CpqStats* s = stats != nullptr ? stats : &local;
  *s = CpqStats{};
  const BufferStats before_p = tree_p.buffer()->ThreadStats();
  const BufferStats before_q = tree_q.buffer()->ThreadStats();

  std::vector<PairResult> out;
  if (tree_p.size() == 0 || tree_q.size() == 0) return out;
  out.reserve(tree_p.size());

  // An external context supersedes `control` (same rule as CpqOptions).
  QueryContext local_ctx(control);
  QueryContext* ctx = context != nullptr ? context : &local_ctx;
  const bool accounting =
      context != nullptr || !ctx->control().IsUnlimited();

  uint64_t node_accesses = 0;
  // Pre-trip check: a pre-cancelled or pre-expired query touches no pages.
  StopCause stop = accounting ? ctx->Check(0, 0) : StopCause::kNone;
  Status inner = Status::OK();
  if (stop == StopCause::kNone) {
    Status scan = tree_p.ScanLeaves(
        [&](const Node& leaf) {
          ++node_accesses;  // the P leaf itself
          inner = GroupNearestForLeaf(tree_q, leaf, ctx, accounting, s, &out,
                                      &node_accesses, &stop);
          return inner.ok() && stop == StopCause::kNone;
        },
        accounting ? ctx : nullptr);
    if (scan.code() == StatusCode::kDeadlineExceeded) {
      stop = StopCause::kDeadline;
      scan = Status::OK();
    }
    KCPQ_RETURN_IF_ERROR(scan);
    KCPQ_RETURN_IF_ERROR(inner);
  }

  std::sort(out.begin(), out.end(),
            [](const PairResult& a, const PairResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.p_id < b.p_id;
            });
  s->disk_accesses_p = tree_p.buffer()->ThreadStats().misses - before_p.misses;
  s->disk_accesses_q = tree_q.buffer()->ThreadStats().misses - before_q.misses;
  s->node_accesses = node_accesses;
  s->quality.stop_cause = stop;
  s->quality.pairs_found = out.size();
  if (stop != StopCause::kNone) {
    // A per-point NN result says nothing about the unvisited P points, so
    // the only honest global lower bound is zero; the partial result is
    // still complete and exact for every P point it covers.
    s->quality.guaranteed_lower_bound = 0.0;
    s->quality.is_exact = false;
  }
  FoldCpqMetrics(*s, -1.0, QueryFamily::kClosest);
  return out;
}

}  // namespace kcpq
