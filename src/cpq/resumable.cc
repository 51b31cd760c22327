#include "cpq/resumable.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "geometry/metrics.h"
#include "obs/explain.h"
#include "obs/trace.h"

namespace kcpq {

using cpq_internal::Candidate;
using cpq_internal::CandidateGreater;
using cpq_internal::CandidateLess;
using cpq_internal::ChooseDescend;
using cpq_internal::CpqEngine;
using cpq_internal::DescendChoice;
using cpq_internal::NodeRef;
using cpq_internal::PairLevel;

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<uint64_t>(d) : 0;
}

}  // namespace

ResumableCpqQuery::ResumableCpqQuery(const RStarTree& tree_p,
                                     const RStarTree& tree_q,
                                     CpqOptions options, CpqStats* stats,
                                     Waker waker)
    : options_(std::move(options)),
      engine_(tree_p, tree_q, options_,
              QueryObjective(options_.family, options_.metric,
                             options_.query_rect),
              stats),
      waker_(std::move(waker)) {}

ResumableCpqQuery::ResumableCpqQuery(const RStarTree& tree_p,
                                     const RStarTree& tree_q,
                                     CpqOptions options,
                                     const QueryObjective& objective,
                                     CpqStats* stats, Waker waker)
    : options_(std::move(options)),
      engine_(tree_p, tree_q, options_, objective, stats),
      waker_(std::move(waker)) {}

ResumableCpqQuery::~ResumableCpqQuery() = default;

double ResumableCpqQuery::Seconds() const {
  if (!timed_) return -1.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

ResumableTask::StepResult ResumableCpqQuery::Park(PageId page) {
  if (!waker_) {
    return Fail(Status::Internal("inline query parked on page " +
                                 std::to_string(page)));
  }
  ++engine_.stats_->io_parks;
  park_pending_ = true;
  park_page_ = page;
  park_start_ = std::chrono::steady_clock::now();
  park_trace_ts_ = engine_.trace_ != nullptr ? engine_.trace_->NowNs() : 0;
  return StepResult::kParked;
}

ResumableTask::StepResult ResumableCpqQuery::Fail(Status s) {
  final_status_ = std::move(s);
  phase_ = Phase::kDone;
  return StepResult::kDone;
}

void ResumableCpqQuery::FoldMetrics() {
  if (engine_.objective_.distance_join()) return;
  cpq_internal::FoldCpqMetrics(*engine_.stats_, Seconds(), options_.family);
}

void ResumableCpqQuery::DeferRoot() {
  CpqEngine& e = engine_;
  e.FoldFrontier(e.objective_.WeakestKey(),
                 SaturatingMul(e.tree_p_.size(), e.tree_q_.size()));
  if (e.profile_ != nullptr) e.profile_->Deferred(root_level_, 1);
  phase_ = Phase::kFinish;
}

void ResumableCpqQuery::CountRead(const BufferManager::TryReadOutcome& outcome,
                                  bool is_p) {
  if (outcome.hit) return;
  if (engine_.tree_p_.buffer() == engine_.tree_q_.buffer()) {
    // One buffer serves both trees (self-join): both per-tree counters
    // describe that buffer, so a miss lands in both.
    ++misses_p_;
    ++misses_q_;
  } else if (is_p) {
    ++misses_p_;
  } else {
    ++misses_q_;
  }
  if (outcome.nowait) ++engine_.stats_->io_nowait_reads;
}

bool ResumableCpqQuery::StartPhase() {
  CpqEngine& e = engine_;
  *e.stats_ = CpqStats{};
  timed_ = cpq_internal::MetricsTimingOn();
  if (timed_) start_ = std::chrono::steady_clock::now();
  if (options_.k == 0 || e.tree_p_.size() == 0 || e.tree_q_.size() == 0) {
    return false;
  }
  root_level_ = PairLevel(e.tree_p_.height() - 1, e.tree_q_.height() - 1);
  if (e.profile_ != nullptr) e.profile_->Considered(root_level_, 1);
  if (e.ShouldStop(0)) {
    DeferRoot();
  } else {
    phase_ = Phase::kReadRootP;
  }
  return true;
}

bool ResumableCpqQuery::ReadRoot(bool is_p, StepResult* parked) {
  CpqEngine& e = engine_;
  const RStarTree& tree = is_p ? e.tree_p_ : e.tree_q_;
  QueryContext* read_ctx = e.accounting_ ? e.context_ : nullptr;
  BufferManager::TryReadOutcome outcome;
  const Status s = tree.TryReadNode(tree.root_page(), tree.height() - 1,
                                    &node_p_, read_ctx, waker_, &outcome);
  if (outcome.parked) {
    *parked = Park(tree.root_page());
    return false;
  }
  if (s.code() == StatusCode::kDeadlineExceeded) {
    e.stop_ = StopCause::kDeadline;
    DeferRoot();
    return true;
  }
  if (!s.ok()) {
    *parked = Fail(s);
    return false;
  }
  CountRead(outcome, is_p);
  (is_p ? mbr_p_ : mbr_q_) = node_p_->mbr();
  phase_ = is_p ? Phase::kReadRootQ : Phase::kSeed;
  return true;
}

void ResumableCpqQuery::SeedPhase() {
  CpqEngine& e = engine_;
  e.tie_context_.root_area_p = mbr_p_.Area();
  e.tie_context_.root_area_q = mbr_q_.Area();
  e.tie_context_.metric = options_.metric;

  const NodeRef root_p{e.tree_p_.root_page(), e.tree_p_.height() - 1, mbr_p_,
                       1, e.tree_p_.size()};
  const NodeRef root_q{e.tree_q_.root_page(), e.tree_q_.height() - 1, mbr_q_,
                       1, e.tree_q_.size()};
  popped_ = Candidate{};
  popped_.p = root_p;
  popped_.q = root_q;
  popped_.key = e.objective_.NodeKey(root_p.mbr, root_q.mbr);
  popped_.max_pairs = SaturatingMul(root_p.max_points, root_q.max_points);
  if (options_.algorithm == CpqAlgorithm::kHeap) {
    heap_.push_back(popped_);
    phase_ = Phase::kHeapLoop;
  } else {
    pending_ = &popped_;
    phase_ = Phase::kExpandCheck;
  }
}

ResumableCpqQuery::ReadPairOutcome ResumableCpqQuery::TryReadPair(
    Status* error) {
  CpqEngine& e = engine_;
  QueryContext* read_ctx = e.accounting_ ? e.context_ : nullptr;
  if (!have_p_) {
    BufferManager::TryReadOutcome outcome;
    const Status s =
        e.tree_p_.TryReadNode(cur_p_.page, cur_p_.level, &node_p_, read_ctx,
                              waker_, &outcome);
    if (outcome.parked) {
      park_page_ = cur_p_.page;
      return ReadPairOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      return ReadPairOutcome::kDeadline;
    }
    if (!s.ok()) {
      *error = s;
      return ReadPairOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/true);
    have_p_ = true;
  }
  if (!have_q_) {
    BufferManager::TryReadOutcome outcome;
    const Status s =
        e.tree_q_.TryReadNode(cur_q_.page, cur_q_.level, &node_q_, read_ctx,
                              waker_, &outcome);
    if (outcome.parked) {
      park_page_ = cur_q_.page;
      return ReadPairOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      return ReadPairOutcome::kDeadline;
    }
    if (!s.ok()) {
      *error = s;
      return ReadPairOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/false);
    have_q_ = true;
  }
  // Both nodes in hand: the pair counts exactly once, no matter how many
  // parks interleaved.
  e.OnPairRead(&cur_p_, &cur_q_, *node_p_, *node_q_);
  return ReadPairOutcome::kOk;
}

void ResumableCpqQuery::AdvanceRecursive() {
  CpqEngine& e = engine_;
  while (rec_depth_ > 0) {
    RecFrame& f = rec_stack_[rec_depth_ - 1];
    if (f.next >= f.candidates.size()) {
      e.candidate_bytes_ -= f.frame_bytes;
      --rec_depth_;
      continue;
    }
    const Candidate& cand = f.candidates[f.next++];
    // Re-test against T at descend time: T may have tightened while the
    // earlier candidates of this very list were processed (the mechanism
    // that makes the ascending-MINMINDIST order pay off).
    if (e.Prunes() && cand.key > e.bound_) {
      e.NotePruned(cand.p.level, cand.q.level, cand.key, 1);
      continue;
    }
    // Once stopped (possibly deeper down), drain: the remaining un-pruned
    // candidates become frontier, not work.
    if (e.stop_ != StopCause::kNone) {
      e.FoldFrontier(cand.key, cand.max_pairs);
      if (e.profile_ != nullptr) {
        e.profile_->Deferred(PairLevel(cand.p.level, cand.q.level), 1);
      }
      continue;
    }
    pending_ = &cand;
    phase_ = Phase::kExpandCheck;
    return;
  }
  phase_ = Phase::kFinish;
}

void ResumableCpqQuery::DrainHeapIntoCertificate(const Candidate& popped) {
  CpqEngine& e = engine_;
  e.FoldFrontier(popped.key, popped.max_pairs);
  if (e.profile_ != nullptr) {
    e.profile_->Deferred(PairLevel(popped.p.level, popped.q.level), 1);
  }
  for (const Candidate& c : heap_) {
    e.FoldFrontier(c.key, c.max_pairs);
    if (e.profile_ != nullptr) {
      e.profile_->Deferred(PairLevel(c.p.level, c.q.level), 1);
    }
  }
  heap_.clear();
}

void ResumableCpqQuery::HeapLoopPhase() {
  CpqEngine& e = engine_;
  if (heap_.empty()) {
    phase_ = Phase::kFinish;
    return;
  }
  e.stats_->max_heap_size =
      std::max<uint64_t>(e.stats_->max_heap_size, heap_.size());
  // Min-heap of node pairs by (key, tie chain): CP1-CP5 of Section 3.5,
  // open-coded over a vector with std::push_heap / pop_heap.
  popped_ = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), CandidateGreater{});
  heap_.pop_back();
  const Candidate& top = popped_;
  if (e.trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kHeapPop;
    ev.level_p = static_cast<int16_t>(top.p.level);
    ev.level_q = static_cast<int16_t>(top.q.level);
    ev.value = top.key;
    ev.bound = e.bound_;
    e.trace_->RecordNow(ev);
  }
  if (top.key > e.bound_) {
    // CP5: the popped pair and everything still queued are cut off.
    if (e.profile_ != nullptr) {
      e.profile_->PrunedOrder(PairLevel(top.p.level, top.q.level), 1);
      for (const Candidate& c : heap_) {
        e.profile_->PrunedOrder(PairLevel(c.p.level, c.q.level), 1);
      }
    }
    phase_ = Phase::kFinish;
    return;
  }
  if (e.ShouldStop(heap_.size() * sizeof(Candidate))) {
    // The popped pair plus everything still queued is the frontier.
    DrainHeapIntoCertificate(top);
    phase_ = Phase::kFinish;
    return;
  }
  // The pop committed before any read: a park during the reads resumes at
  // kHeapRead and can never re-pop (or re-poll) this pair.
  cur_p_ = top.p;
  cur_q_ = top.q;
  have_p_ = have_q_ = false;
  phase_ = Phase::kHeapRead;
}

ResumableTask::StepResult ResumableCpqQuery::Step() {
  if (park_pending_) {
    park_pending_ = false;
    const uint64_t dur =
        ElapsedNs(park_start_, std::chrono::steady_clock::now());
    engine_.stats_->io_parked_ns += dur;
    if (engine_.trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kIoPark;
      ev.ts_ns = park_trace_ts_;
      ev.dur_ns = dur > 0 ? dur : 1;
      ev.a = park_page_;
      engine_.trace_->Record(ev);
    }
  }

  for (;;) {
    switch (phase_) {
      case Phase::kStart: {
        if (!StartPhase()) {
          FoldMetrics();
          final_status_ = Status::OK();
          phase_ = Phase::kDone;
          return StepResult::kDone;
        }
        continue;
      }
      case Phase::kReadRootP: {
        StepResult r = StepResult::kDone;
        if (!ReadRoot(/*is_p=*/true, &r)) return r;
        continue;
      }
      case Phase::kReadRootQ: {
        StepResult r = StepResult::kDone;
        if (!ReadRoot(/*is_p=*/false, &r)) return r;
        continue;
      }
      case Phase::kSeed: {
        SeedPhase();
        continue;
      }
      case Phase::kExpandCheck: {
        CpqEngine& e = engine_;
        const NodeRef& rp = pending_->p;
        const NodeRef& rq = pending_->q;
        // Stop check at node-pair granularity, *before* the reads: a
        // stopped query folds this unexpanded pair into the frontier.
        if (e.ShouldStop(0)) {
          e.FoldFrontier(e.objective_.NodeKey(rp.mbr, rq.mbr),
                         SaturatingMul(rp.max_points, rq.max_points));
          if (e.profile_ != nullptr) {
            e.profile_->Deferred(PairLevel(rp.level, rq.level), 1);
          }
          AdvanceRecursive();
          continue;
        }
        cur_p_ = rp;
        cur_q_ = rq;
        have_p_ = have_q_ = false;
        phase_ = Phase::kExpandRead;
        continue;
      }
      case Phase::kExpandRead: {
        CpqEngine& e = engine_;
        Status err;
        const ReadPairOutcome r = TryReadPair(&err);
        if (r == ReadPairOutcome::kParked) return Park(park_page_);
        if (r == ReadPairOutcome::kError) return Fail(err);
        if (r == ReadPairOutcome::kDeadline) {
          // The storage stack abandoned a retry the deadline could not
          // cover. The pair stays unexpanded: latch the deadline stop and
          // fold the pair's *original* refs, not the refreshed cur_*.
          e.stop_ = StopCause::kDeadline;
          const NodeRef& rp = pending_->p;
          const NodeRef& rq = pending_->q;
          e.FoldFrontier(e.objective_.NodeKey(rp.mbr, rq.mbr),
                         SaturatingMul(rp.max_points, rq.max_points));
          if (e.profile_ != nullptr) {
            e.profile_->Deferred(PairLevel(rp.level, rq.level), 1);
          }
          AdvanceRecursive();
          continue;
        }
        const DescendChoice choice = ChooseDescend(
            node_p_->level(), node_q_->level(), options_.height_strategy);
        if (choice == DescendChoice::kLeaves) {
          Status s =
              e.ProcessLeaves(*node_p_, *node_q_, cur_p_.page == cur_q_.page);
          if (!s.ok()) return Fail(std::move(s));
          AdvanceRecursive();
          continue;
        }
        if (rec_depth_ == rec_stack_.size()) rec_stack_.emplace_back();
        RecFrame& f = rec_stack_[rec_depth_++];
        f.next = 0;
        e.ExpandRecursive(cur_p_, *node_p_, cur_q_, *node_q_, choice,
                          &f.candidates);
        f.frame_bytes = f.candidates.size() * sizeof(Candidate);
        e.candidate_bytes_ += f.frame_bytes;
        AdvanceRecursive();
        continue;
      }
      case Phase::kHeapLoop: {
        HeapLoopPhase();
        continue;
      }
      case Phase::kHeapRead: {
        CpqEngine& e = engine_;
        Status err;
        const ReadPairOutcome r = TryReadPair(&err);
        if (r == ReadPairOutcome::kParked) return Park(park_page_);
        if (r == ReadPairOutcome::kError) return Fail(err);
        if (r == ReadPairOutcome::kDeadline) {
          e.stop_ = StopCause::kDeadline;
          DrainHeapIntoCertificate(popped_);
          phase_ = Phase::kFinish;
          continue;
        }
        const DescendChoice choice = ChooseDescend(
            node_p_->level(), node_q_->level(), options_.height_strategy);
        if (choice == DescendChoice::kLeaves) {
          Status s =
              e.ProcessLeaves(*node_p_, *node_q_, cur_p_.page == cur_q_.page);
          if (!s.ok()) return Fail(std::move(s));
          phase_ = Phase::kHeapLoop;
          continue;
        }
        e.ExpandHeap(cur_p_, *node_p_, cur_q_, *node_q_, choice,
                     &candidates_scratch_, &heap_);
        phase_ = Phase::kHeapLoop;
        continue;
      }
      case Phase::kFinish: {
        CpqEngine& e = engine_;
        e.stats_->disk_accesses_p = misses_p_;
        e.stats_->disk_accesses_q = misses_q_;
        e.stats_->node_accesses = e.node_accesses_;
        e.FinalizeQualityAndTrace();
        FoldMetrics();
        results_out_ = std::move(e.results_).Extract();
        // Equal keys leave the heap in no particular order; the ε-join
        // lists ties by ids.
        if (e.objective_.distance_join()) SortByDistanceThenIds(&results_out_);
        final_status_ = Status::OK();
        phase_ = Phase::kDone;
        return StepResult::kDone;
      }
      case Phase::kDone:
        return StepResult::kDone;
    }
  }
}

}  // namespace kcpq
