#include "cpq/engine.h"

#include <algorithm>
#include <limits>

#include "geometry/metrics.h"
#include "obs/explain.h"
#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

namespace kcpq {
namespace cpq_internal {

namespace {

// m^(level+1): minimum points in a non-root subtree rooted at `level`.
uint64_t MinPointsAtLevel(int level, uint64_t min_entries) {
  uint64_t n = 1;
  for (int i = 0; i <= level; ++i) n *= min_entries;
  return n;
}

}  // namespace

uint64_t MaxPointsAtLevel(int level, uint64_t max_entries) {
  uint64_t n = 1;
  for (int i = 0; i <= level; ++i) n = SaturatingMul(n, max_entries);
  return n;
}

uint64_t MinPointsOfNode(const NodeImage& node, uint64_t min_entries) {
  if (node.IsLeaf()) return node.entries().size();
  // Each child is a non-root subtree at node.level - 1.
  return node.entries().size() *
         MinPointsAtLevel(node.level() - 1, min_entries);
}

uint64_t MaxPointsOfNode(const NodeImage& node, uint64_t max_entries) {
  if (node.IsLeaf()) return node.entries().size();
  return SaturatingMul(node.entries().size(),
                       MaxPointsAtLevel(node.level() - 1, max_entries));
}

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

bool MetricsTimingOn() {
#if KCPQ_METRICS
  return obs::Enabled();
#else
  return false;
#endif
}

DescendChoice ChooseDescend(int level_p, int level_q,
                            HeightStrategy strategy) {
  if (level_p == 0 && level_q == 0) return DescendChoice::kLeaves;
  if (strategy == HeightStrategy::kFixAtRoot && level_p != level_q) {
    // Fix-at-root: only the deeper (higher-level) tree descends until the
    // two sides meet at the same level.
    return level_p > level_q ? DescendChoice::kFirstOnly
                             : DescendChoice::kSecondOnly;
  }
  // Fix-at-leaves (and equal levels): descend both until a side bottoms
  // out, then keep the leaf fixed.
  if (level_p == 0) return DescendChoice::kSecondOnly;
  if (level_q == 0) return DescendChoice::kFirstOnly;
  return DescendChoice::kBoth;
}

CpqEngine::CpqEngine(const RStarTree& tree_p, const RStarTree& tree_q,
                     const CpqOptions& options, CpqStats* stats)
    : tree_p_(tree_p),
      tree_q_(tree_q),
      options_(options),
      stats_(stats != nullptr ? stats : &local_stats_),
      objective_(options.family, options.metric, options.query_rect),
      results_(options.k, objective_),
      bound_(std::numeric_limits<double>::infinity()),
      local_context_(options.control),
      context_(options.context != nullptr ? options.context : &local_context_),
      profile_(context_->profile()),
      trace_(context_->trace()),
      accounting_(options.context != nullptr ||
                  !options.control.IsUnlimited()),
      certificate_(options.k) {}

void CpqEngine::FinalizeQualityAndTrace() {
  // Quality certificate. A completed query keeps the default (exact,
  // bound = +inf). A stopped one reports the frontier minimum: no pair the
  // traversal never saw can be closer than it (docs/robustness.md). The
  // stop can still be provably harmless — frontier empty, or every
  // frontier pair already worse than the full K-heap — in which case the
  // partial result *is* a true answer and is_exact stays set.
  stats_->quality.stop_cause = stop_;
  stats_->quality.pairs_found = results_.size();
  stats_->quality.bound_is_upper = objective_.BoundIsUpper();
  if (stop_ != StopCause::kNone) {
    stats_->quality.guaranteed_lower_bound =
        objective_.KeyToDistance(frontier_min_pow_);
    stats_->quality.is_exact =
        frontier_min_pow_ == std::numeric_limits<double>::infinity() ||
        (results_.full() && results_.Bound() <= frontier_min_pow_);
    // Per-rank refinement: bound r certifies that at most r missing
    // true-answer pairs can beat it — closer for minimizing families,
    // farther for kFarthest (capacity-weighted frontier profile; proof in
    // docs/robustness.md). KeyToDistance flips negated farthest keys back
    // to distances, so the reported values descend under bound_is_upper.
    const std::vector<double> pow_bounds = certificate_.RankBoundsPow();
    stats_->quality.rank_lower_bounds.reserve(pow_bounds.size());
    for (const double b : pow_bounds) {
      stats_->quality.rank_lower_bounds.push_back(
          objective_.KeyToDistance(b));
    }
  }

  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kQuery;
    e.ts_ns = 0;
    e.dur_ns = trace_->NowNs();
    e.value = static_cast<double>(options_.k);
    e.a = stats_->node_pairs_processed;
    e.b = node_accesses_;
    trace_->Record(e);
  }
}

void CpqEngine::NoteBoundImprovement() {
  if (bound_ >= reported_bound_) return;
  reported_bound_ = bound_;
  // The profile/trace report in power space; for kFarthest the key is the
  // negated power, so flip the sign back for display (a tightening bound
  // then *rises* toward the K-th farthest distance, as expected).
  const double display = objective_.minimizing() ? bound_ : -bound_;
  if (profile_ != nullptr) {
    profile_->BoundUpdate(stats_->node_pairs_processed, display);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kBoundUpdate;
    e.bound = display;
    e.a = stats_->node_pairs_processed;
    trace_->RecordNow(e);
  }
  if (obs::QueryObservation* live = context_->observation(); live != nullptr) {
    // The live registry reports real distance units (what the final
    // quality certificate will say), not the engine's power-space key.
    live->NoteBound(objective_.KeyToDistance(bound_));
  }
}

bool CpqEngine::ShouldStop(uint64_t extra_bytes) {
  if (stop_ != StopCause::kNone) return true;
  if (!accounting_) return false;
  // The context checks the *unified* footprint: the engine bytes recorded
  // here plus every distinct buffer page the query has read.
  stop_ = context_->Check(node_accesses_, candidate_bytes_ + extra_bytes);
  return stop_ != StopCause::kNone;
}

void CpqEngine::OnPairRead(NodeRef* ref_p, NodeRef* ref_q,
                           const NodeImage& node_p, const NodeImage& node_q) {
  ++stats_->node_pairs_processed;
  node_accesses_ += 2;
  // Refresh the refs with exact facts from the pages (roots start with
  // placeholder min_points; fixed nodes get tighter counts).
  ref_p->level = node_p.level();
  ref_q->level = node_q.level();
  ref_p->mbr = node_p.mbr();
  ref_q->mbr = node_q.mbr();
  ref_p->min_points = MinPointsOfNode(node_p, tree_p_.min_entries());
  ref_q->min_points = MinPointsOfNode(node_q, tree_q_.min_entries());
  ref_p->max_points = MaxPointsOfNode(node_p, tree_p_.max_entries());
  ref_q->max_points = MaxPointsOfNode(node_q, tree_q_.max_entries());
  if (profile_ != nullptr) {
    profile_->Visited(PairLevel(node_p.level(), node_q.level()), 1);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kDescend;
    e.level_p = static_cast<int16_t>(node_p.level());
    e.level_q = static_cast<int16_t>(node_q.level());
    e.bound = bound_;
    e.a = ref_p->page;
    e.b = ref_q->page;
    trace_->RecordNow(e);
  }
}

void CpqEngine::ProcessLeaves(const NodeImage& node_p,
                              const NodeImage& node_q, bool same_node) {
  // Leaf entries are degenerate rects for point data and real boxes for
  // extended objects; the object distance is MINMINDIST of the rects
  // (which collapses to the point distance for points), reported via a
  // closest point pair.
  //
  // Self-join: symmetric node pairs were skipped at generation time, so a
  // cross-node unordered object pair reaches this loop exactly once (in
  // arbitrary order — normalize on output); within one node, the id filter
  // keeps each unordered pair once and drops reflexive pairs. The filter
  // lives inside `consider` so both kernels apply identical rules.
  const auto consider = [&](const Entry& ep, const Entry& eq) {
    if (options_.self_join) {
      if (same_node) {
        if (ep.id >= eq.id) return true;
      } else if (ep.id == eq.id) {
        return true;
      }
    }
    if (!objective_.LeafPairEligible(ep.rect, eq.rect)) return true;
    ++stats_->point_distance_computations;
    const double key = objective_.LeafKey(ep.rect, eq.rect);
    if (key >= results_.Bound()) return true;  // cheap reject before points
    Point p, q;
    ClosestPoints(ep.rect, eq.rect, &p, &q);
    if (options_.self_join && ep.id > eq.id) {
      results_.Offer(key, q, p, eq.id, ep.id);
    } else {
      results_.Offer(key, p, q, ep.id, eq.id);
    }
    return true;
  };

  const uint64_t kernel_start_ns =
      trace_ != nullptr ? trace_->NowNs() : 0;

  // The sweep's skip test lower-bounds a pair's *distance* by its sweep-axis
  // gap, which only implies `key >= Bound()` for minimizing objectives —
  // kFarthest falls back to the nested loop regardless of the option.
  if (options_.leaf_kernel == LeafKernel::kPlaneSweep &&
      objective_.SweepUsable()) {
    // Pairs the sweep skips have sweep-axis separation alone >= the result
    // heap's bound, so their full distance would fail the `key >= Bound()`
    // reject above — identical results, fewer distance computations. The
    // bound is re-read per skip test, so pairs offered early in this very
    // sweep tighten it for the rest.
    const uint64_t total = static_cast<uint64_t>(node_p.entries().size()) *
                           node_q.entries().size();
    const uint64_t visited = SweepNodePairs(
        node_p, node_q, options_.metric, /*strict=*/false,
        [&] { return results_.Bound(); }, consider);
    stats_->leaf_pairs_skipped += total - visited;
  } else {
    for (const Entry& ep : node_p.entries()) {
      for (const Entry& eq : node_q.entries()) {
        consider(ep, eq);
      }
    }
  }
  bound_ = std::min(bound_, results_.Bound());
  NoteBoundImprovement();
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kLeafKernel;
    e.ts_ns = kernel_start_ns;
    const uint64_t end = trace_->NowNs();
    e.dur_ns = end > kernel_start_ns ? end - kernel_start_ns : 1;
    e.bound = bound_;
    e.a = node_p.entries().size();
    e.b = node_q.entries().size();
    trace_->Record(e);
  }
}

void CpqEngine::GenerateCandidates(const NodeRef& ref_p,
                                   const NodeImage& node_p,
                                   const NodeRef& ref_q,
                                   const NodeImage& node_q,
                                   DescendChoice choice,
                                   std::vector<Candidate>* out) {
  out->clear();
  const bool expand_p = choice == DescendChoice::kBoth ||
                        choice == DescendChoice::kFirstOnly;
  const bool expand_q = choice == DescendChoice::kBoth ||
                        choice == DescendChoice::kSecondOnly;
  const int child_level_p = expand_p ? node_p.level() - 1 : node_p.level();
  const int child_level_q = expand_q ? node_q.level() - 1 : node_q.level();

  // The fixed side contributes itself as the single "child".
  const uint64_t child_min_p =
      MinPointsAtLevel(node_p.level() - 1, tree_p_.min_entries());
  const uint64_t child_min_q =
      MinPointsAtLevel(node_q.level() - 1, tree_q_.min_entries());
  const uint64_t child_max_p =
      MaxPointsAtLevel(node_p.level() - 1, tree_p_.max_entries());
  const uint64_t child_max_q =
      MaxPointsAtLevel(node_q.level() - 1, tree_q_.max_entries());
  const Entry fixed_p{ref_p.mbr, ref_p.page};
  const Entry fixed_q{ref_q.mbr, ref_q.page};
  const std::span<const Entry> side_p =
      expand_p ? node_p.entries() : std::span<const Entry>(&fixed_p, 1);
  const std::span<const Entry> side_q =
      expand_q ? node_q.entries() : std::span<const Entry>(&fixed_q, 1);

  const bool score_ties = !options_.tie_chain.empty() &&
                          (options_.algorithm == CpqAlgorithm::kSortedDistances ||
                           options_.algorithm == CpqAlgorithm::kHeap);
  // Self-join: when both sides expand the *same* node, the child pairs
  // (i, j) and (j, i) both arise here and cover the same unordered object
  // pairs — keep only the page-ordered one (nearly halves the traversal).
  // Distinct parents already appear in exactly one orientation, inherited
  // from the ancestor where they split apart.
  const bool same_node = options_.self_join && ref_p.page == ref_q.page;
  const auto add = [&](const Entry& ep, const Entry& eq) {
    if (same_node && ep.id > eq.id) return true;
    Candidate cand;
    cand.p = expand_p ? NodeRef{ep.id, child_level_p, ep.rect, child_min_p,
                                child_max_p}
                      : ref_p;
    cand.q = expand_q ? NodeRef{eq.id, child_level_q, eq.rect, child_min_q,
                                child_max_q}
                      : ref_q;
    cand.key = objective_.NodeKey(cand.p.mbr, cand.q.mbr);
    cand.min_pairs = cand.p.min_points * cand.q.min_points;
    cand.max_pairs = SaturatingMul(cand.p.max_points, cand.q.max_points);
    if (score_ties) {
      ComputeTieScores(cand.p.mbr, cand.q.mbr, options_.tie_chain,
                       tie_context_, cand.tie);
    }
    out->push_back(cand);
    return true;
  };

  // Range-restricted objectives pre-prune subtrees that cannot contain a
  // qualifying point (MBR strictly outside the query rect). Skipped
  // children never enter the candidate list, so the EXPLAIN accounting
  // identity (considered = visited + pruned + deferred) holds as-is.
  uint64_t considered = 0;
  if (SweepsCandidates()) {
    // A pair whose axis gap alone exceeds T is never built: its key (>=
    // the gap) would fail the `key > T` prune test, and it cannot lower T
    // either — its MINMAXDIST and MAXMAXDIST are >= the gap too
    // (docs/algorithms.md). It still counts as considered and pruned.
    static constexpr uint32_t kOnlyEntry[] = {0};
    const int axis = SweepAxis(ref_p.mbr, ref_q.mbr);
    const auto side = [&](const NodeImage& node, bool expand,
                          const Entry& fixed, std::vector<uint32_t>* kept) {
      const SortedEntries all =
          expand ? SortedBy(node, axis) : SortedEntries{&fixed, kOnlyEntry};
      if (!objective_.restricted()) return all;
      kept->clear();
      for (const uint32_t i : all.order) {
        if (objective_.SubtreeEligible(all.entries[i].rect)) kept->push_back(i);
      }
      return SortedEntries{all.entries, *kept};
    };
    const SortedEntries sweep_p =
        side(node_p, expand_p, fixed_p, &eligible_p_);
    const SortedEntries sweep_q =
        same_node ? sweep_p : side(node_q, expand_q, fixed_q, &eligible_q_);
    // A node's children have distinct pages, so a same-node expansion
    // keeps the n (n + 1) / 2 page-ordered pairs.
    const uint64_t np = sweep_p.size();
    considered = same_node ? np * (np + 1) / 2 : np * sweep_q.size();
    PlaneSweepPairs(sweep_p, sweep_q, axis, options_.metric, /*strict=*/true,
                    EntryRect, [this] { return bound_; }, add);
    if (considered > out->size()) {
      NotePruned(child_level_p, child_level_q, bound_,
                 considered - out->size());
    }
  } else {
    out->reserve(side_p.size() * side_q.size());
    for (const Entry& ep : side_p) {
      if (!objective_.SubtreeEligible(ep.rect)) continue;
      for (const Entry& eq : side_q) {
        if (objective_.SubtreeEligible(eq.rect)) add(ep, eq);
      }
    }
    considered = out->size();
  }
  stats_->candidate_pairs_generated += considered;
  if (profile_ != nullptr) {
    // All candidates of one expansion share their level: each expanded
    // side steps down one level, a fixed side stays.
    profile_->Considered(PairLevel(child_level_p, child_level_q), considered);
  }
}

void CpqEngine::NotePruned(int level_p, int level_q, double key,
                           uint64_t count) {
  stats_->candidate_pairs_pruned += count;
  if (profile_ != nullptr) {
    profile_->PrunedIneq1(PairLevel(level_p, level_q), count);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kPrune;
    e.level_p = static_cast<int16_t>(level_p);
    e.level_q = static_cast<int16_t>(level_q);
    e.value = key;
    e.bound = bound_;
    e.a = count;
    trace_->RecordNow(e);
  }
}

void CpqEngine::TightenBoundFromCandidates(
    const std::vector<Candidate>& candidates) {
  if (candidates.empty()) return;
  // Range-restricted objectives cannot count pairs toward the bound: the
  // guaranteed pairs beneath a candidate may all lie outside the rect.
  if (!objective_.CanTightenFromCapacities()) return;
  if (objective_.minimizing() && options_.k == 1) {
    // 1-CPQ special case (Section 3.3): at least one point pair beneath
    // each candidate lies within its MINMAXDIST.
    for (const Candidate& c : candidates) {
      bound_ = std::min(bound_, MinMaxDistPow(c.p.mbr, c.q.mbr,
                                              options_.metric));
    }
    return;
  }
  if (options_.k > 1 && !options_.use_maxmaxdist_pruning) return;
  // K > 1 (Section 3.8): every point pair beneath a candidate is within its
  // MAXMAXDIST; accumulate candidates in ascending MAXMAXDIST until the
  // guaranteed pair count reaches K — that MAXMAXDIST bounds the K-th
  // closest distance. kFarthest mirrors this in key space: every pair
  // beneath a candidate is at least its MINMINDIST away, so the tighten key
  // is -MINMINDIST and the same ascending accumulation (= descending
  // MINMINDIST) bounds the K-th farthest distance from below. (For
  // kFarthest this covers K = 1 too — the exact mirror of MINMAXDIST.)
  maxmax_scratch_.clear();
  maxmax_scratch_.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    const double tighten_key =
        objective_.minimizing()
            ? MaxMaxDistPow(c.p.mbr, c.q.mbr, options_.metric)
            : -MinMinDistPow(c.p.mbr, c.q.mbr, options_.metric);
    maxmax_scratch_.emplace_back(tighten_key, c.min_pairs);
  }
  std::sort(maxmax_scratch_.begin(), maxmax_scratch_.end());
  uint64_t pairs = 0;
  for (const auto& [tighten_key, count] : maxmax_scratch_) {
    pairs += count;
    if (pairs >= options_.k) {
      bound_ = std::min(bound_, tighten_key);
      break;
    }
  }
}

void CpqEngine::ExpandRecursive(const NodeRef& ref_p,
                                const NodeImage& node_p,
                                const NodeRef& ref_q,
                                const NodeImage& node_q,
                                DescendChoice choice,
                                std::vector<Candidate>* candidates) {
  GenerateCandidates(ref_p, node_p, ref_q, node_q, choice, candidates);
  if (TightensBound()) {
    TightenBoundFromCandidates(*candidates);
    NoteBoundImprovement();
  }
  if (options_.algorithm == CpqAlgorithm::kSortedDistances) {
    std::sort(candidates->begin(), candidates->end(), CandidateLess());
  }
}

void CpqEngine::ExpandHeap(const NodeRef& ref_p, const NodeImage& node_p,
                           const NodeRef& ref_q, const NodeImage& node_q,
                           DescendChoice choice,
                           std::vector<Candidate>* scratch,
                           std::vector<Candidate>* heap) {
  GenerateCandidates(ref_p, node_p, ref_q, node_q, choice, scratch);
  TightenBoundFromCandidates(*scratch);
  NoteBoundImprovement();
  for (const Candidate& cand : *scratch) {
    if (cand.key > bound_) {
      NotePruned(cand.p.level, cand.q.level, cand.key, 1);
      continue;
    }
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kHeapPush;
      e.level_p = static_cast<int16_t>(cand.p.level);
      e.level_q = static_cast<int16_t>(cand.q.level);
      e.value = cand.key;
      e.bound = bound_;
      trace_->RecordNow(e);
    }
    heap->push_back(cand);
    std::push_heap(heap->begin(), heap->end(), CandidateGreater());
  }
}

}  // namespace cpq_internal
}  // namespace kcpq
