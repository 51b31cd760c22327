// The Hjaltason–Samet top-K join as a resumable task. The join's priority
// queue loop (hs/hs.cc) is its one traversal: it remembers the
// popped-but-unexpanded item plus whichever node of the pair is already in
// hand, so with a scheduler's waker it parks on a missing node and
// re-enters the expansion — never the pop or the context poll — when the
// page lands. With an empty waker every read blocks inline and one Step
// runs the join; HsKClosestPairs is exactly that. Results, certificates
// and per-query disk accesses therefore do not depend on the drive mode.

#ifndef KCPQ_HS_RESUMABLE_H_
#define KCPQ_HS_RESUMABLE_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/resumable.h"
#include "hs/hs.h"

namespace kcpq {

/// One HS top-K join (sets k_bound = k). Construct, Step until kDone,
/// read status()/TakeResults(), discard.
class ResumableHsQuery final : public ResumableTask {
 public:
  /// `stats` may be null. The trees and `options.context` (if set) must
  /// outlive the task. An empty `waker` drives the join inline.
  ResumableHsQuery(const RStarTree& tree_p, const RStarTree& tree_q, size_t k,
                   HsOptions options, HsStats* stats, Waker waker);
  ~ResumableHsQuery() override;

  StepResult Step() override;

  /// OK unless the join hit a non-deadline storage/corruption error.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(results_); }

 private:
  std::unique_ptr<hs_internal::JoinImpl> impl_;
  size_t k_;
  HsStats* stats_;  // may be null
  QueryFamily family_ = QueryFamily::kClosest;  // for the metrics fold
  std::vector<PairResult> results_;
  Status final_status_;
  bool done_ = false;
  bool inline_ = false;  // built without a waker
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kcpq

#endif  // KCPQ_HS_RESUMABLE_H_
