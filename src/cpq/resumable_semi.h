// Semi-CPQ (all nearest neighbors): a scan of P's leaves, each served by
// one best-first group nearest-neighbor descent of Q, as one explicit state
// machine. It is the only Semi-CPQ traversal: SemiClosestPairs drives it
// inline with an empty waker (every read blocks, one Step finishes), and
// the batch executor drives it either inline or on the completion-driven
// scheduler, where a miss parks the task (see cpq/resumable.h for the two
// drive modes and the lifetime rules, which are the same here).
//
// A park resumes AT the read, never before a stop poll, so interleaving
// cannot add or drop deadline observations; per-query misses are tallied
// from each read's TryReadOutcome. node_accesses counts P leaves and
// popped Q nodes; internal P nodes are read but not counted.

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

/// One semi-join (all-nearest-neighbor) execution. Construct, Step until
/// kDone (re-Stepping only after the waker fires when parked), read
/// status()/TakeResults(), discard. Same lifetime rules as
/// ResumableCpqQuery: trees, context, and waker must outlive the task.
class ResumableSemiQuery final : public ResumableTask {
 public:
  /// `stats` may be null; an external `context` supersedes `control`. An
  /// empty `waker` drives the query inline.
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

  /// Same park rule as ResumableCpqQuery::Park: without a waker a park is
  /// an Internal error.
  StepResult Park(PageId page);
  StepResult Fail(Status s);
  /// Same shared-buffer rule as ResumableCpqQuery::CountRead: one buffer
  /// serving both trees counts each miss on both sides.
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

  // P traversal state: an explicit LIFO stack of pages to read. The page
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
  StopCause stop_ = StopCause::kNone;

  // Park bookkeeping, identical to ResumableCpqQuery.
  bool park_pending_ = false;
  std::chrono::steady_clock::time_point park_start_;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_SEMI_H_
