// The K-CPQ traversal: all five algorithms, plus self, farthest and
// rect-restricted queries, as one explicit state machine over the
// engine's kernels (cpq/engine.h).
//
// Every node read goes through BufferManager::TryRead, and the waker the
// task was built with decides how the machine is driven:
//
//   * Inline (empty waker): TryRead is the synchronous read, so Step()
//     runs the whole query on the calling thread and returns kDone.
//     KClosestPairs / SelfKClosestPairs and the batch executor's
//     thread-pool mode drive it this way.
//   * Scheduled (a scheduler's waker): a miss registers the waker with
//     the buffer's in-flight fetch and Step() returns kParked; the
//     completion-driven scheduler (exec/scheduler.h) re-runs the task
//     when the page lands, so a few workers multiplex hundreds of
//     in-flight queries.
//
// Both modes run the same code, so results, quality certificates and
// per-query disk accesses are the same by construction; the drive mode
// only decides whether a miss waits on the thread or off it. Two rules
// keep a park invisible to the query: the recursion is an explicit frame
// stack and the heap loop pops before it reads, so a park resumes at the
// read, never before a stop poll; and per-query misses are tallied from
// each read's TryReadOutcome (miss at claim), never from thread-local
// buffer deltas, which mean nothing when many queries share a worker.
//
// Lifetime: a scheduled query registers its waker with the
// BufferManager's in-flight demand fetches. A query stopped while parked
// can leave such an entry staged after it finishes; the batch executor
// settles the buffers once after the whole scheduler run.

#ifndef KCPQ_CPQ_RESUMABLE_H_
#define KCPQ_CPQ_RESUMABLE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/resumable.h"
#include "cpq/engine.h"

namespace kcpq {

/// One K-CPQ execution. Construct, Step until kDone (re-Stepping only
/// after the waker fires when parked), read status()/TakeResults(),
/// discard. Self-joins pass the same tree twice with options.self_join.
class ResumableCpqQuery final : public ResumableTask {
 public:
  /// `stats` may be null. `options` is copied; `options.context` (if set)
  /// and the trees must outlive the task. A non-empty waker must be
  /// callable from I/O completion threads until Step() has returned kDone;
  /// an empty one drives the query inline (see the file comment).
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
    kStart,       // stats reset, trivial-query checks
    kReadRootP,   // root MBR of P (parks like any read)
    kReadRootQ,   // root MBR of Q
    kSeed,        // tie context + root pair; dispatch by algorithm
    kExpandCheck, // recursive algorithms: stop poll before the pair's reads
    kExpandRead,  // recursive algorithms: read pair, expand, descend
    kHeapLoop,    // kHeap: pop, CP5 / stop checks
    kHeapRead,    // kHeap: read the popped pair, expand, push
    kFinish,      // epilogue: per-query stats + quality certificate
    kDone,
  };

  /// One suspended activation of the recursive algorithms: the candidate
  /// list of an expanded pair and the index of the next one to visit.
  /// Frames below `rec_depth_` are live; the ones above keep their
  /// vectors' capacity for the next expansion at that depth.
  struct RecFrame {
    std::vector<cpq_internal::Candidate> candidates;
    size_t next = 0;
    uint64_t frame_bytes = 0;
  };

  enum class ReadPairOutcome { kOk, kParked, kDeadline, kError };

  /// Reads whichever side of (cur_p_, cur_q_) is not in hand yet,
  /// parking on a miss-in-flight. Only after BOTH nodes are in hand does
  /// it count the pair (node_pairs_processed, node_accesses += 2) and
  /// refresh the refs, no matter how many parks interleaved.
  ReadPairOutcome TryReadPair(Status* error);

  /// Records a park on `page` and returns kParked. The matching resume
  /// bookkeeping (parked-time accounting, io_park trace span) runs at the
  /// top of the next Step(). Without a waker nothing could resume the
  /// task, so the park becomes an Internal error instead (unreachable:
  /// TryRead without a waker never parks).
  StepResult Park(PageId page);
  StepResult Fail(Status s);

  /// Tallies one served read into the per-query miss counters. A self-join's shared buffer counts each miss on both sides
  /// (disk_accesses_p and _q both describe that one buffer).
  void CountRead(const BufferManager::TryReadOutcome& outcome, bool is_p);

  /// Walks the frame stack to the next candidate to expand (applying the
  /// prune / drain rules), setting pending_ and phase kExpandCheck;
  /// kFinish when the stack empties.
  void AdvanceRecursive();
  /// The heap's stop-drain: folds the popped pair plus the whole remaining
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

  // Traversal state.
  int root_level_ = 0;
  Rect mbr_p_, mbr_q_;
  /// The pair chosen for expansion, before its reads: the root pair or
  /// the heap's pop (both in popped_), or a candidate of the top frame.
  const cpq_internal::Candidate* pending_ = nullptr;
  cpq_internal::Candidate popped_;
  cpq_internal::NodeRef cur_p_, cur_q_;  // refs refreshed by TryReadPair
  NodeImagePtr node_p_, node_q_;
  bool have_p_ = false, have_q_ = false;
  std::vector<RecFrame> rec_stack_;
  size_t rec_depth_ = 0;
  std::vector<cpq_internal::Candidate> heap_;
  std::vector<cpq_internal::Candidate> candidates_scratch_;

  /// Seconds since the first Step, or -1 when metrics timing is off.
  double Seconds() const;

  // Metrics timing (cpq_query_seconds), from the first Step.
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;

  // Per-query I/O accounting from TryReadOutcome (see header comment).
  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;

  // Park bookkeeping: resume time minus park time is the io_park span.
  bool park_pending_ = false;
  PageId park_page_ = kInvalidPageId;
  std::chrono::steady_clock::time_point park_start_;
  uint64_t park_trace_ts_ = 0;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_H_
