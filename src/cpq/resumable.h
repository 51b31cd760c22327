// Resumable K-CPQ execution: the blocking engine's traversal re-driven as
// an explicit state machine that *yields* on a buffer miss instead of
// blocking the thread.
//
// The blocking CpqEngine (cpq/engine.h) spends nearly all of its wall time
// inside ReadNode waiting for storage; one OS thread therefore advances one
// query. ResumableCpqQuery replaces every blocking read with
// BufferManager::TryRead: on a non-resident page it registers the
// scheduler-provided waker with the buffer's in-flight fetch and returns
// StepResult::kParked from Step(). The completion-driven scheduler
// (exec/scheduler.h) re-runs the task when the page lands, so a small
// worker pool multiplexes hundreds of in-flight queries — each paying full
// I/O latency, none paying it on a thread.
//
// Equivalence contract (enforced by tests/resumable_test.cc): for any
// query, the resumable execution produces bit-identical results, an
// identical quality certificate, and identical per-query disk-access
// counts to the blocking path. This falls out of three properties:
//
//   1. Same kernels. The machine is a friend of CpqEngine and calls the
//      exact OnPairRead / ProcessLeaves / ExpandRecursive / ExpandHeap /
//      ShouldStop / FoldFrontier the blocking drivers call, against the
//      same engine state (bound_, results_, certificate_, ...).
//   2. Same traversal order. The recursion is an explicit frame stack and
//      the heap loop pops before yielding, so interleaving with other
//      queries cannot reorder *this* query's work. A park resumes at the
//      read, never before a stop poll (a parked query must not observe a
//      deadline the blocking run would not have polled there).
//   3. Same counting. TryRead counts a miss when the page is claimed, not
//      when the fetch is issued, and per-query misses are tallied from the
//      returned TryReadOutcome (thread-local buffer deltas are meaningless
//      when many queries share a worker thread).
//
// Lifetime: the engine registers wakers and an issuer (QueryContext)
// pointer with the BufferManager. Both may outlive a finished query
// inside staged prefetch entries, so callers must drain the buffers
// (DrainPrefetches) before destroying the task or its QueryContext — the
// batch executor drains once after the whole scheduler run.

#ifndef KCPQ_CPQ_RESUMABLE_H_
#define KCPQ_CPQ_RESUMABLE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/resumable.h"
#include "cpq/engine.h"

namespace kcpq {

/// One resumable K-CPQ execution. Construct, Step until kDone (re-Stepping
/// only after the waker fires when parked), read status()/TakeResults(),
/// discard. Self-joins pass the same tree twice with options.self_join.
class ResumableCpqQuery final : public ResumableTask {
 public:
  /// `stats` may be null. `options` is copied; `options.context` (if set)
  /// and the trees must outlive the task *and* any buffer drain that
  /// settles its speculation. The waker must be callable from I/O
  /// completion threads until Step() has returned kDone.
  ResumableCpqQuery(const RStarTree& tree_p, const RStarTree& tree_q,
                    CpqOptions options, CpqStats* stats, Waker waker);
  ~ResumableCpqQuery() override;

  StepResult Step() override;

  /// OK unless the traversal hit a non-deadline storage/corruption error.
  /// Meaningful once Step() has returned kDone.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(results_out_); }

 private:
  enum class Phase {
    kStart,       // stats reset, trivial-query checks, prefetch config
    kReadRootP,   // root MBR of P (parks like any read)
    kReadRootQ,   // root MBR of Q
    kSeed,        // tie context + root refs; dispatch to a driver
    kExpandCheck, // recursive driver: stop poll before the pair's reads
    kExpandRead,  // recursive driver: read pair, expand, descend
    kHeapLoop,    // heap driver: prefetch, pop, CP5 / stop checks
    kHeapRead,    // heap driver: read the popped pair, expand, push
    kFinish,      // epilogue: per-query stats + quality certificate
    kDone,
  };

  /// One suspended ProcessPairRecursive activation: the candidate list of
  /// an expanded pair and the index of the next candidate to visit.
  struct RecFrame {
    std::vector<cpq_internal::Candidate> candidates;
    size_t next = 0;
    uint64_t frame_bytes = 0;
  };

  enum class ReadPairOutcome { kOk, kParked, kDeadline, kError };

  /// Non-blocking ReadPair: reads whichever side of (cur_p_, cur_q_) is
  /// not cached yet, parking on a miss-in-flight. Only after BOTH nodes
  /// are resident does it count the pair (node_pairs_processed,
  /// node_accesses += 2) and refresh the refs — identical bookkeeping to
  /// the blocking ReadPair, no matter how many parks interleaved.
  ReadPairOutcome TryReadPair(Status* error);

  /// Records a park on `page` and returns kParked. The matching resume
  /// bookkeeping (parked-time accounting, io_park trace span) runs at the
  /// top of the next Step().
  StepResult Park(PageId page);
  StepResult Fail(Status s);

  /// Tallies one served read into the per-query miss / prefetch-hit
  /// counters. A self-join's shared buffer counts each miss on both sides,
  /// matching the blocking path's thread-local delta arithmetic.
  void CountRead(const BufferManager::TryReadOutcome& outcome, bool is_p);

  /// Walks the frame stack to the next candidate to expand (applying the
  /// blocking candidate loop's prune / drain rules), setting pending_ and
  /// phase kExpandCheck; kFinish when the stack empties.
  void AdvanceRecursive();
  /// RunHeap's stop-drain: folds the popped pair plus the whole remaining
  /// heap into the certificate.
  void DrainHeapIntoCertificate(const cpq_internal::Candidate& popped);

  bool StartPhase();     // returns false when the query is trivially done
  bool ReadRoot(bool is_p, StepResult* parked);
  void SeedPhase();
  void HeapLoopPhase();

  CpqOptions options_;  // stable storage for engine_'s options reference
  cpq_internal::CpqEngine engine_;
  Waker waker_;
  Phase phase_ = Phase::kStart;
  Status final_status_;
  std::vector<PairResult> results_out_;

  // Traversal state that blocking execution keeps on the call stack.
  int root_level_ = 0;
  Rect mbr_p_, mbr_q_;
  cpq_internal::Candidate pending_;  // pair chosen for expansion, pre-read
  cpq_internal::NodeRef cur_p_, cur_q_;  // refs refreshed by TryReadPair
  NodeImagePtr node_p_, node_q_;
  bool have_p_ = false, have_q_ = false;
  std::vector<RecFrame> rec_stack_;
  std::vector<cpq_internal::Candidate> heap_;
  std::vector<cpq_internal::Candidate> candidates_scratch_;
  std::vector<uint32_t> spec_order_;

  // Per-query I/O accounting from TryReadOutcome (see header comment).
  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_issued_ = 0;

  // Park bookkeeping: resume time minus park time is the io_park span.
  bool park_pending_ = false;
  PageId park_page_ = kInvalidPageId;
  std::chrono::steady_clock::time_point park_start_;
  uint64_t park_trace_ts_ = 0;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_H_
