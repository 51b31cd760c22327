// Resumable Semi-CPQ: the per-leaf group nearest-neighbor scan of
// cpq.cc's SemiClosestPairs re-driven as an explicit state machine that
// yields on a buffer miss (closing the PR-6 "semi runs as a blocking
// step" gap — the batch executor now multiplexes semi-joins on the
// completion-driven scheduler like every other kind).
//
// Equivalence contract (tests/resumable_test.cc rides the semi query in
// the 50-seed blocking-vs-resumable differential): bit-identical results,
// identical quality certificate, identical per-query disk accesses. The
// same three properties as ResumableCpqQuery (cpq/resumable.h) deliver
// it:
//
//   1. Same kernels — the traversal replicates ScanLeaves' explicit LIFO
//      stack and GroupNearestForLeaf's best-first Q descent statement for
//      statement, including the worst-bound break / re-test rules.
//   2. Same order — a park resumes AT the read, never before a stop
//      poll, so interleaving cannot add or drop deadline observations.
//   3. Same counting — per-query misses are tallied from TryReadOutcome
//      (miss at claim), which equals the blocking path's thread-local
//      buffer-delta arithmetic; node_accesses counts P leaves and popped
//      Q nodes exactly as the blocking code does (internal P nodes are
//      read but not counted, matching ScanLeaves).

#ifndef KCPQ_CPQ_RESUMABLE_SEMI_H_
#define KCPQ_CPQ_RESUMABLE_SEMI_H_

#include <chrono>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "common/resumable.h"
#include "cpq/cpq.h"
#include "rtree/rtree.h"

namespace kcpq {

/// One resumable semi-join (all-nearest-neighbor) execution. Construct,
/// Step until kDone (re-Stepping only after the waker fires when parked),
/// read status()/TakeResults(), discard. Same lifetime rules as
/// ResumableCpqQuery: trees, context, and waker must outlive the task and
/// any buffer drain that settles staged pages.
class ResumableSemiQuery final : public ResumableTask {
 public:
  /// Mirrors SemiClosestPairs: `stats` may be null; an external `context`
  /// supersedes `control`.
  ResumableSemiQuery(const RStarTree& tree_p, const RStarTree& tree_q,
                     CpqStats* stats, const QueryControl& control,
                     QueryContext* context, Waker waker);
  ~ResumableSemiQuery() override;

  StepResult Step() override;

  /// OK unless the traversal hit a non-deadline storage error. Meaningful
  /// once Step() has returned kDone.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(out_); }

 private:
  enum class Phase {
    kStart,      // stats reset, trivial-query check, pre-trip stop poll
    kScanRead,   // P traversal: read the top of the LIFO stack
    kGroupLoop,  // Q descent: pop, worst-bound break test, stop poll
    kGroupRead,  // Q descent: read the popped node, update best lists
    kGroupEmit,  // leaf finished whole: emit one pair per leaf point
    kFinish,     // epilogue: sort, per-query stats, quality certificate
    kDone,
  };

  struct QueueItem {
    double key;
    PageId page;
    int level;
    bool operator>(const QueueItem& other) const { return key > other.key; }
  };

  StepResult Park(PageId page);
  StepResult Fail(Status s);
  /// Same shared-buffer rule as ResumableCpqQuery::CountRead: one buffer
  /// serving both trees counts each miss on both sides, matching the
  /// blocking path's thread-local delta arithmetic.
  void CountRead(const BufferManager::TryReadOutcome& outcome, bool is_p);

  bool StartPhase();  // returns false when the query is trivially done
  void FinishPhase();

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  CpqStats* stats_;
  CpqStats local_stats_;
  QueryContext local_ctx_;
  QueryContext* ctx_;
  bool accounting_;
  Waker waker_;

  Phase phase_ = Phase::kStart;
  Status final_status_;
  std::vector<PairResult> out_;

  // P traversal state (ScanLeaves' call-stack made explicit). The page
  // being read stays on the stack until the read lands, so a park simply
  // re-reads it. Each page goes with the level its read expects.
  std::vector<std::pair<PageId, int>> stack_;
  NodeImagePtr node_p_, node_q_;

  // Group-NN state for the current P leaf.
  Rect leaf_mbr_;
  std::vector<double> best_;
  std::vector<Entry> best_entry_;
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      queue_;
  double group_worst_ = 0.0;  // worst unresolved best at this pop
  PageId group_page_ = kInvalidPageId;
  int group_level_ = 0;

  // Per-query accounting (see header comment).
  uint64_t node_accesses_ = 0;
  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;
  uint64_t prefetch_hits_ = 0;
  StopCause stop_ = StopCause::kNone;

  // Park bookkeeping, identical to ResumableCpqQuery.
  bool park_pending_ = false;
  std::chrono::steady_clock::time_point park_start_;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_SEMI_H_
