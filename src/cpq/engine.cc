#include "cpq/engine.h"

#include <algorithm>
#include <limits>

#include "geometry/metrics.h"
#include "obs/explain.h"
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

Status CpqEngine::Run(std::vector<PairResult>* out) {
  *stats_ = CpqStats{};
  if (options_.k == 0) return Status::OK();
  if (tree_p_.size() == 0 || tree_q_.size() == 0) return Status::OK();

  const BufferStats before_p = tree_p_.buffer()->ThreadStats();
  const BufferStats before_q = tree_q_.buffer()->ThreadStats();
  prefetch_.Configure(tree_p_.buffer(), tree_q_.buffer(),
                      options_.prefetch_window,
                      accounting_ ? context_ : nullptr);

  const int root_level = PairLevel(tree_p_.height() - 1, tree_q_.height() - 1);
  // The root pair enters the search unconditionally: it is the one pair
  // "considered" that no GenerateCandidates call accounts for.
  if (profile_ != nullptr) profile_->Considered(root_level, 1);

  // Pre-trip check (a pre-cancelled or pre-expired query must not touch
  // the trees at all). Nothing was examined, so certify nothing: bound 0
  // at every rank.
  Status engine_status;
  if (ShouldStop(0)) {
    FoldFrontier(objective_.WeakestKey(),
                 std::numeric_limits<uint64_t>::max());
    if (profile_ != nullptr) profile_->Deferred(root_level, 1);
  } else {
    QueryContext* read_ctx = accounting_ ? context_ : nullptr;
    Rect mbr_p, mbr_q;
    Status root_status = tree_p_.RootMbr(&mbr_p, read_ctx);
    if (root_status.ok()) root_status = tree_q_.RootMbr(&mbr_q, read_ctx);
    if (root_status.code() == StatusCode::kDeadlineExceeded) {
      // Storage abandoned a retry before anything was examined: partial
      // with a vacuous certificate, same as a pre-expired deadline.
      stop_ = StopCause::kDeadline;
      FoldFrontier(objective_.WeakestKey(),
                   std::numeric_limits<uint64_t>::max());
      if (profile_ != nullptr) profile_->Deferred(root_level, 1);
    } else if (!root_status.ok()) {
      engine_status = root_status;
    } else {
      tie_context_.root_area_p = mbr_p.Area();
      tie_context_.root_area_q = mbr_q.Area();
      tie_context_.metric = options_.metric;

      NodeRef root_p{tree_p_.root_page(), tree_p_.height() - 1, mbr_p, 1,
                     tree_p_.size()};
      NodeRef root_q{tree_q_.root_page(), tree_q_.height() - 1, mbr_q, 1,
                     tree_q_.size()};

      if (options_.algorithm == CpqAlgorithm::kHeap) {
        engine_status = RunHeap(root_p, root_q);
      } else {
        engine_status = ProcessPairRecursive(root_p, root_q);
      }
    }
  }

  if (prefetch_.enabled()) {
    // Settle speculation before reading the deltas: waits out in-flight
    // reads and discards staged-but-unclaimed pages as waste, so the
    // accounting identity holds at query end. Runs on the error paths too:
    // staged entries record this query's context as their issuer, which
    // must not outlive the context. (Concurrent queries sharing a buffer
    // may drain each other's staged pages — results are unaffected, the
    // victims just fall back to synchronous reads.)
    tree_p_.buffer()->DrainPrefetches();
    if (tree_q_.buffer() != tree_p_.buffer()) {
      tree_q_.buffer()->DrainPrefetches();
    }
  }
  KCPQ_RETURN_IF_ERROR(engine_status);

  const BufferStats after_p = tree_p_.buffer()->ThreadStats();
  const BufferStats after_q = tree_q_.buffer()->ThreadStats();
  stats_->disk_accesses_p = after_p.misses - before_p.misses;
  stats_->disk_accesses_q = after_q.misses - before_q.misses;
  stats_->node_accesses = node_accesses_;
  // Issue and claim both happen on the query's thread, so these deltas are
  // exact per query; don't double-count a self-join's shared buffer.
  stats_->prefetch_issued = after_p.prefetch_issued - before_p.prefetch_issued;
  stats_->prefetch_hits = after_p.prefetch_hits - before_p.prefetch_hits;
  if (tree_q_.buffer() != tree_p_.buffer()) {
    stats_->prefetch_issued +=
        after_q.prefetch_issued - before_q.prefetch_issued;
    stats_->prefetch_hits += after_q.prefetch_hits - before_q.prefetch_hits;
  }

  FinalizeQualityAndTrace();

  *out = std::move(results_).Extract();
  return Status::OK();
}

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

Status CpqEngine::ReadPair(NodeRef* ref_p, NodeRef* ref_q,
                           NodeImagePtr* node_p, NodeImagePtr* node_q) {
  QueryContext* read_ctx = accounting_ ? context_ : nullptr;
  KCPQ_RETURN_IF_ERROR(
      tree_p_.ReadNode(ref_p->page, ref_p->level, node_p, read_ctx));
  KCPQ_RETURN_IF_ERROR(
      tree_q_.ReadNode(ref_q->page, ref_q->level, node_q, read_ctx));
  OnPairRead(ref_p, ref_q, **node_p, **node_q);
  return Status::OK();
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

size_t CpqEngine::ExpandRecursive(const NodeRef& ref_p,
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
  if (!prefetch_.enabled() || candidates->empty()) return 0;
  // Speculate on the first W surviving candidates — for STD this is the
  // exact descend order; for the unsorted algorithms it is generation
  // order, which is still the processing order of this frame.
  prefetch_.Clear();
  size_t added = 0;
  for (const Candidate& cand : *candidates) {
    if (added >= prefetch_.window()) break;
    if (Prunes() && cand.key > bound_) continue;
    prefetch_.Add(cand.key, cand.p.page, cand.q.page);
    ++added;
  }
  return prefetch_.Issue();
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

Status CpqEngine::ProcessPairRecursive(const NodeRef& ref_p,
                                       const NodeRef& ref_q) {
  // Stop check at node-pair granularity, *before* the reads: a stopped
  // query folds this unexpanded pair into the frontier bound instead.
  if (ShouldStop(0)) {
    FoldFrontier(objective_.NodeKey(ref_p.mbr, ref_q.mbr),
                 SaturatingMul(ref_p.max_points, ref_q.max_points));
    if (profile_ != nullptr) {
      profile_->Deferred(PairLevel(ref_p.level, ref_q.level), 1);
    }
    return Status::OK();
  }

  NodeRef p = ref_p;
  NodeRef q = ref_q;
  NodeImagePtr node_p, node_q;
  const Status read_status = ReadPair(&p, &q, &node_p, &node_q);
  if (read_status.code() == StatusCode::kDeadlineExceeded) {
    // The storage stack abandoned a retry the deadline could not cover.
    // The pair stays unexpanded: latch the deadline stop and fold it.
    stop_ = StopCause::kDeadline;
    FoldFrontier(objective_.NodeKey(ref_p.mbr, ref_q.mbr),
                 SaturatingMul(ref_p.max_points, ref_q.max_points));
    if (profile_ != nullptr) {
      // ReadPair failed before recording a visit, so the pair is deferred.
      profile_->Deferred(PairLevel(ref_p.level, ref_q.level), 1);
    }
    return Status::OK();
  }
  KCPQ_RETURN_IF_ERROR(read_status);

  const DescendChoice choice =
      ChooseDescend(node_p->level(), node_q->level(), options_.height_strategy);
  if (choice == DescendChoice::kLeaves) {
    ProcessLeaves(*node_p, *node_q, p.page == q.page);
    return Status::OK();
  }

  std::vector<Candidate> candidates;
  ExpandRecursive(p, *node_p, q, *node_q, choice, &candidates);
  const uint64_t frame_bytes = candidates.size() * sizeof(Candidate);
  candidate_bytes_ += frame_bytes;
  for (const Candidate& cand : candidates) {
    // Re-test against T at descend time: T may have tightened while the
    // earlier candidates of this very list were processed (the mechanism
    // that makes the ascending-MINMINDIST order pay off).
    if (Prunes() && cand.key > bound_) {
      NotePruned(cand.p.level, cand.q.level, cand.key, 1);
      continue;
    }
    // Once stopped (possibly by a deeper recursion), drain: the remaining
    // un-pruned candidates become frontier, not work.
    if (stop_ != StopCause::kNone) {
      FoldFrontier(cand.key, cand.max_pairs);
      if (profile_ != nullptr) {
        profile_->Deferred(PairLevel(cand.p.level, cand.q.level), 1);
      }
      continue;
    }
    const Status s = ProcessPairRecursive(cand.p, cand.q);
    if (!s.ok()) {
      candidate_bytes_ -= frame_bytes;
      return s;
    }
  }
  candidate_bytes_ -= frame_bytes;
  return Status::OK();
}

Status CpqEngine::RunHeap(const NodeRef& root_p, const NodeRef& root_q) {
  // Min-heap of node pairs by (MINMINDIST, tie chain); CP1-CP5 of
  // Section 3.5. Open-coded over a vector with std::push_heap / pop_heap —
  // the exact operations std::priority_queue is specified to perform, so
  // the pop order is bit-identical to the previous implementation — which
  // exposes the underlying array: the prefetch scheduler peeks at the
  // frontier's best pairs without disturbing the heap.
  const CandidateGreater heap_order{};
  std::vector<Candidate> heap;

  Candidate first;
  first.p = root_p;
  first.q = root_q;
  first.key = objective_.NodeKey(root_p.mbr, root_q.mbr);
  first.max_pairs = SaturatingMul(root_p.max_points, root_q.max_points);
  heap.push_back(first);

  // On a stop, the popped pair plus everything still queued is the
  // frontier; fold it all so the per-rank certificate sees the full
  // capacity profile (the scalar bound needs only the popped key — the
  // heap pops in ascending MINMINDIST — but rank bounds improve with
  // every entry). FoldFrontier and the profile's per-level counts are
  // order-insensitive, so the remaining entries are walked in array
  // order, no pops needed.
  const auto drain_into_certificate = [&](const Candidate& popped) {
    FoldFrontier(popped.key, popped.max_pairs);
    if (profile_ != nullptr) {
      profile_->Deferred(PairLevel(popped.p.level, popped.q.level), 1);
    }
    for (const Candidate& c : heap) {
      FoldFrontier(c.key, c.max_pairs);
      if (profile_ != nullptr) {
        profile_->Deferred(PairLevel(c.p.level, c.q.level), 1);
      }
    }
    heap.clear();
  };

  std::vector<Candidate> candidates;
  std::vector<uint32_t> spec_order;
  while (!heap.empty()) {
    stats_->max_heap_size = std::max<uint64_t>(stats_->max_heap_size,
                                               heap.size());
    if (prefetch_.enabled()) {
      // Speculate on the frontier's best W pairs — including heap[0], the
      // pair read next, so even a child pushed by the previous expansion
      // (the best-first descent chain, where the next pop is brand new)
      // has its reads in flight before ReadPair demands them. The W
      // smallest entries of a binary heap all live in the first 2^W - 1
      // array slots, so a bounded prefix scan finds the exact top-W for
      // W <= 9 and a close approximation above (speculation tolerates
      // approximation; the claim path does not care which pages arrive).
      //
      // Selection must use the pop order itself (CandidateLess: MINMINDIST
      // plus the tie chain) — with overlapping data most frontier keys tie
      // at 0, and any other tie-break speculates on pairs the heap will
      // not pop next. The rank is passed as the scheduler key so pages of
      // the nearest pops are submitted, and therefore complete, first.
      prefetch_.Clear();
      const size_t scan = std::min<size_t>(heap.size(), 512);
      spec_order.clear();
      for (uint32_t i = 0; i < scan; ++i) {
        if (heap[i].key > bound_) continue;  // would be CP5-cut
        spec_order.push_back(i);
      }
      const size_t take = std::min(spec_order.size(), prefetch_.window());
      std::partial_sort(spec_order.begin(),
                        spec_order.begin() + static_cast<ptrdiff_t>(take),
                        spec_order.end(), [&heap](uint32_t a, uint32_t b) {
                          return CandidateLess()(heap[a], heap[b]);
                        });
      for (size_t r = 0; r < take; ++r) {
        const Candidate& c = heap[spec_order[r]];
        prefetch_.Add(static_cast<double>(r), c.p.page, c.q.page);
      }
      prefetch_.Issue();
    }
    const Candidate top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), heap_order);
    heap.pop_back();
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kHeapPop;
      e.level_p = static_cast<int16_t>(top.p.level);
      e.level_q = static_cast<int16_t>(top.q.level);
      e.value = top.key;
      e.bound = bound_;
      trace_->RecordNow(e);
    }
    if (top.key > bound_) {
      // Nothing better can remain (CP5): the popped pair and everything
      // still queued are cut off by the best-first order.
      if (profile_ != nullptr) {
        profile_->PrunedOrder(PairLevel(top.p.level, top.q.level), 1);
        for (const Candidate& c : heap) {
          profile_->PrunedOrder(PairLevel(c.p.level, c.q.level), 1);
        }
      }
      break;
    }
    if (ShouldStop(heap.size() * sizeof(Candidate))) {
      drain_into_certificate(top);
      break;
    }

    NodeRef p = top.p;
    NodeRef q = top.q;
    NodeImagePtr node_p, node_q;
    const Status read_status = ReadPair(&p, &q, &node_p, &node_q);
    if (read_status.code() == StatusCode::kDeadlineExceeded) {
      stop_ = StopCause::kDeadline;
      drain_into_certificate(top);
      break;
    }
    KCPQ_RETURN_IF_ERROR(read_status);

    const DescendChoice choice = ChooseDescend(
        node_p->level(), node_q->level(), options_.height_strategy);
    if (choice == DescendChoice::kLeaves) {
      ProcessLeaves(*node_p, *node_q, p.page == q.page);
      continue;
    }
    ExpandHeap(p, *node_p, q, *node_q, choice, &candidates, &heap);
  }
  return Status::OK();
}

}  // namespace cpq_internal
}  // namespace kcpq
