// Online scrub: background divergence repair while the buffer is idle.
//
// BackgroundScrubber owns a thread that samples an *activity probe* — any
// monotone counter whose movement means the store is busy; the CLI passes
// the BufferManager's logical reads (`buf.stats().logical_reads()`), which
// count every thread's hits and misses. When the probe has not moved
// for `idle_after`, the scrubber asks the MirroredStorageManager to scrub
// the next `pages_per_tick` pages, then yields again. The probe keeps the
// layering clean (storage cannot depend on buffer) and the hook
// observational — the scrubber never touches the buffer's hot path, takes
// none of its locks, and issues no reads through it, so the paper's
// disk-access metric and the replacement history are untouched by
// scrubbing (the replicas' physical counters do move; that is real
// maintenance I/O).
//
// The cursor wraps, so a long-lived process keeps re-verifying the whole
// page space; reports accumulate across sweeps (report()). The offline
// entry point with the same verification logic is tools/kcpq_scrub.cc.

#ifndef KCPQ_STORAGE_SCRUB_H_
#define KCPQ_STORAGE_SCRUB_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "storage/mirrored_storage.h"

namespace kcpq {

/// Monotone busyness counter; scrub ticks run only after it stops moving.
/// A null probe means "always idle" (offline scrub cadence).
using ScrubActivityProbe = std::function<uint64_t()>;

struct BackgroundScrubOptions {
  /// How often the activity signal is sampled.
  std::chrono::milliseconds poll{5};
  /// Quiet time (no logical buffer reads) before a scrub tick runs.
  std::chrono::milliseconds idle_after{10};
  /// Pages verified per tick; small so a resuming workload waits at most
  /// one tick behind maintenance I/O.
  uint64_t pages_per_tick = 64;
  bool repair = true;
};

class BackgroundScrubber {
 public:
  /// `mirrored` (and whatever `activity` captures) must outlive the
  /// scrubber, or Stop() must be called first. Starts the thread
  /// immediately.
  BackgroundScrubber(MirroredStorageManager* mirrored,
                     ScrubActivityProbe activity,
                     BackgroundScrubOptions options = {});
  ~BackgroundScrubber();

  BackgroundScrubber(const BackgroundScrubber&) = delete;
  BackgroundScrubber& operator=(const BackgroundScrubber&) = delete;

  /// Stops and joins the thread (idempotent).
  void Stop();

  /// Findings accumulated over every tick so far.
  ScrubReport report() const;
  /// Full passes over the page space completed.
  uint64_t sweeps() const;

 private:
  void Loop();
  bool BufferIdle();

  MirroredStorageManager* mirrored_;
  ScrubActivityProbe activity_;
  BackgroundScrubOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  ScrubReport report_;
  uint64_t sweeps_ = 0;
  PageId cursor_ = 0;
  uint64_t last_activity_ = 0;
  std::chrono::steady_clock::time_point last_active_at_;

  std::thread thread_;
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_SCRUB_H_
