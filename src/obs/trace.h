// Per-query trace spans: a bounded ring buffer of fixed-size events hung
// off QueryContext, cheap enough to leave compiled in and recorded only
// when the caller attaches a buffer (`--trace-out`).
//
// A query is single-threaded in this codebase (parallelism is across
// queries), so TraceBuffer is deliberately not thread-safe: one writer,
// reads after the query finishes. Timestamps are steady-clock nanoseconds
// relative to buffer construction, which keeps events comparable within a
// query and makes the exported Chrome trace start near t=0.

#ifndef KCPQ_OBS_TRACE_H_
#define KCPQ_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace kcpq {
namespace obs {

enum class TraceEventKind : uint8_t {
  kQuery = 0,       // whole-query span; value = k
  kDescend,         // node pair expanded; a/b = child page ids
  kHeapPush,        // candidate pushed; value = MINMINDIST, bound = T
  kHeapPop,         // candidate popped; value = MINMINDIST, bound = T
  kPrune,           // candidates pruned (Inequality 1); a = how many,
                    // value = MINMINDIST of the one, or for a group the
                    // sweep never built the bound T their axis gap beat
  kLeafKernel,      // leaf pair processed; a/b = point counts
  kIoWait,          // physical page read; a = page id, dur = wait
  kRetry,           // transient-fault retry attempt; a = attempt number
  kRetryAbandoned,  // retry loop gave up (deadline); a = attempts made
  kBoundUpdate,     // pruning bound T tightened; bound = new T
  kIoPark,          // resumable engine parked on a non-resident page;
                    // a = page id, dur = parked time until resumption
  kIoHedge,         // speculative second replica read issued; a = page
                    // id, b = hedge replica, dur = delay before hedging
};

const char* TraceEventKindName(TraceEventKind kind);

/// Fixed-size record; meaning of value/bound/a/b depends on `kind`.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kQuery;
  int16_t level_p = -1;
  int16_t level_q = -1;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;   // 0 -> instant event
  double value = 0.0;
  double bound = 0.0;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Bounded ring: once `capacity` events have been recorded the oldest are
/// overwritten, so a pathological query cannot grow memory while the most
/// recent (usually most interesting) window survives.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = kDefaultCapacity);

  void Record(TraceEvent event);
  /// Record with ts_ns stamped from the buffer clock.
  void RecordNow(TraceEvent event) {
    event.ts_ns = NowNs();
    Record(event);
  }

  /// Nanoseconds since buffer construction (steady clock).
  uint64_t NowNs() const;

  /// Events oldest -> newest (unwraps the ring).
  std::vector<TraceEvent> Events() const;
  uint64_t total_recorded() const { return total_recorded_; }
  uint64_t dropped() const {
    return total_recorded_ <= ring_.size()
               ? 0
               : total_recorded_ - ring_.size();
  }
  size_t capacity() const { return capacity_; }

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  size_t capacity_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  uint64_t total_recorded_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// Chrome `trace_event` JSON ({"traceEvents":[...]}): durations become
/// "X" (complete) events, instants become "i". Loadable in
/// chrome://tracing and Perfetto.
std::string ChromeTraceJson(const TraceBuffer& buffer);

/// Writes ChromeTraceJson to `path`; false on I/O failure.
bool WriteChromeTrace(const TraceBuffer& buffer, const std::string& path);

}  // namespace obs
}  // namespace kcpq

#endif  // KCPQ_OBS_TRACE_H_
