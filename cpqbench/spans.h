// Span recorder for the traced run.
//
// The benchmark times every call it makes into a library layer with a
// span: a name, start, end, the span that was open on the same thread when
// it began (its parent), and the id of the operation (query or update) the
// calling thread is running. Spans are appended to per-thread buffers and
// analysed after the run, so recording costs two clock reads and a vector
// append and takes no lock.
//
// Only the threads that issue operations ("client" threads) know which
// operation they serve. Spans recorded on any other thread (I/O pool
// workers running hedged replica reads) have operation id 0 and no parent;
// they feed latency distributions, not the per-operation identity.

#ifndef CPQBENCH_SPANS_H_
#define CPQBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace cpqbench {

/// One name per library entry point the benchmark calls.
enum SpanName : uint16_t {
  kExecBatch,    // exec: BatchKClosestPairs
  kCpqClosest,   // cpq: KClosestPairs
  kCpqSelf,      // cpq: SelfKClosestPairs
  kCpqSemi,      // cpq: SemiClosestPairs
  kHsJoin,       // hs: HsKClosestPairs
  kRtreeInsert,  // rtree: RStarTree::Insert
  kRtreeErase,   // rtree: RStarTree::Erase
  kStorageRead,  // storage: ReadPage on the store under the buffer
  kStorageWrite, // storage: WritePage on the store under the buffer
  kReplicaRead,  // storage: ReadPage on one replica under the mirror
  kSpanNameCount
};

/// The src/ module the span's callee belongs to.
const char* SpanLayer(SpanName name);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;      // operation id; 0 = not on a client thread
  int32_t parent = -1;  // index in the same thread's buffer; -1 = root
  uint16_t name = 0;
};

/// Steady-clock nanoseconds (process-wide origin).
uint64_t NowNs();

/// Marks the calling thread as a client and starts operation `op` (ids
/// start at 1). Spans opened until EndOp belong to it and are recorded
/// only when `record` is true.
void BeginOp(uint64_t op, bool record);
void EndOp();

/// Whether spans on non-client threads are recorded.
void SetBackgroundRecording(bool on);

/// Every span recorded so far, one vector per thread.
std::vector<std::vector<Span>> CollectSpans();
/// Drops every recorded span (buffers stay registered).
void ClearSpans();

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_ = -1;
};

/// Per-layer self time of the traced operations, and the identity
///   sum over layers of self time + unattributed = operation wall time.
struct SpanAnalysis {
  /// Indexed by SpanName: summed self time (span minus the part of it
  /// its children cover), and summed duration.
  std::vector<double> self_s = std::vector<double>(kSpanNameCount, 0.0);
  std::vector<double> total_s = std::vector<double>(kSpanNameCount, 0.0);
  /// Durations (microseconds) of every span of one name, any thread.
  std::vector<std::vector<double>> durations_us =
      std::vector<std::vector<double>>(kSpanNameCount);
  double wall_s = 0.0;          // sum of traced operation wall times
  double unattributed_s = 0.0;  // wall_s - sum(self_s) over client spans
  uint64_t ops = 0;             // traced operations analysed
  /// Structural violations: a child outside its parent, or an operation
  /// whose spans cover more than its wall time.
  uint64_t violations = 0;

  double LayerSelf(const std::string& layer) const;
};

/// `op_wall_ns[op]` is the client-measured wall time of traced operation
/// `op` (0 for untraced ones); spans of untraced operations are ignored.
SpanAnalysis AnalyzeSpans(const std::vector<std::vector<Span>>& threads,
                          const std::vector<uint64_t>& op_wall_ns);

}  // namespace cpqbench

#endif  // CPQBENCH_SPANS_H_
