// Shared pieces of the four workloads: arguments, sizes, the query stream,
// the per-run report, and small statistics helpers.

#ifndef CPQBENCH_WORKLOAD_H_
#define CPQBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/batch.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "spans.h"
#include "storage/page.h"

namespace cpqbench {

using Items = std::vector<std::pair<kcpq::Point, uint64_t>>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own tests.
  bool smoke = false;
};

/// Set-up failure: the run stops without printing a result.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Check(const kcpq::Status& status, const char* what);
template <typename T>
T Take(kcpq::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Every metric a run can report, by name.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics BENCHMARK.json lists (the JSON of --trace 0).
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Further end-to-end metrics that can be 0 on some workload; they are
/// printed with the end-to-end table and reported as per-layer metrics.
extern const std::vector<MetricDef> kZeroableEndToEndMetrics;
/// The per-layer metrics BENCHMARK.json lists (the JSON of --trace 1).
extern const std::vector<MetricDef> kPerLayerMetrics;

/// What one run measured.
struct Report {
  struct Value {
    double value = 0.0;
    uint64_t samples = 0;
  };
  std::map<std::string, Value> values;
  /// Operations (queries and updates) run in the measured phase.
  uint64_t attempted = 0;
  /// Failed, partial, cancelled or rejected operations.
  uint64_t failed = 0;
  /// Oracle, repeatability or span-identity mismatches.
  uint64_t mismatches = 0;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, uint64_t samples) {
    values[name] = Value{value, samples};
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void Mismatch(std::string what) {
    ++mismatches;
    notes.push_back("MISMATCH: " + std::move(what));
  }
};

/// Workload sizes; `Smoke` shrinks every one for the benchmark's tests.
struct Sizes {
  size_t points = 20000;       // per tree (mem-mix, file-b0)
  size_t mirror_points = 10000;  // per tree (mirror-tail)
  size_t lru_points = 40000;   // per tree (paper-lru)
  size_t fixed_queries = 1000; // stream prefix every run completes
  size_t batch = 220;          // file-b0 queries per batch
  double batches_per_second = 0.8;  // file-b0 batches per --seconds
  size_t lru_pages = 256;      // paper-lru buffer pages per tree
  size_t updates = 100;        // paper-lru inserts (and erases) per round
  size_t oracle_samples = 16;  // seeded sample checked against the oracle
  int setup_reps = 5;          // set-ups per run; setup_s is their median

  static Sizes For(const Args& args);
};

constexpr size_t kClients = 4;      // closed-loop client threads
constexpr size_t kBufferShards = 64;
constexpr double kSliceSeconds = 0.5;
/// Seeds of the data sets. The paper measures on fixed data sets (the
/// Sequoia-like set stands in for its one real data set), and R*-trees
/// built from two uniform draws differ by up to 15% in node reads per
/// query, which would make every latency a property of the draw. So the
/// data sets are fixed; the workload seed drives the queries and updates.
constexpr uint64_t kUniformSeed = 40000;
constexpr uint64_t kSequoiaSeed = 62536;

// ---------------------------------------------------------------- queries

enum class QueryKind {
  kRect,         // rect-restricted closest pairs
  kClosestHeap,  // whole-workspace closest pairs, HEAP
  kClosestStd,   // whole-workspace closest pairs, STD
  kSelf,         // self closest pairs on P
  kFarthest,     // farthest pairs
  kHs,           // HS incremental join
};
const char* QueryKindName(QueryKind kind);

struct QuerySpec {
  QueryKind kind = QueryKind::kRect;
  size_t k = 1;
  kcpq::Rect rect;
};

/// The seeded query mix of mem-mix, file-b0 and mirror-tail. Query i is a
/// pure function of (seed, i), so concurrent clients can draw indices from
/// a shared counter and every run with one seed runs the same queries.
/// Each block of 20 queries holds exactly 17 rect-restricted queries and
/// 3 whole-workspace ones (unless rect-only), which cycle through the 11
/// whole-workspace variants, so the mix does not drift between runs. Every
/// aligned group of 220 queries (a file-b0 batch) holds each variant 3
/// times, and the variants' order in a group rotates from one group to
/// the next independently of the seed: a seed-chosen order would repeat
/// in every batch of a run and move file-b0's per-batch latencies with it.
class QueryStream {
 public:
  QueryStream(uint64_t seed, const kcpq::Rect& workspace, bool rect_only)
      : seed_(seed), workspace_(workspace), rect_only_(rect_only) {}

  QuerySpec At(uint64_t index) const;

  static constexpr int kWholeVariants = 11;

 private:
  uint64_t seed_;
  kcpq::Rect workspace_;
  bool rect_only_;
};

kcpq::BatchQuery ToBatchQuery(const QuerySpec& spec);

// ----------------------------------------------------------------- helpers

uint64_t Mix(uint64_t a, uint64_t b);
/// Uniform double in [0, 1) from a hash.
double Unit(uint64_t h);

Items ToItems(const std::vector<kcpq::Point>& points, uint64_t first_id = 0);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Alternating untraced/traced time slices of a measured phase: in a
/// traced run, operations starting in odd slices are traced; in an
/// untraced run none is.
class Slices {
 public:
  Slices(bool trace, uint64_t start_ns) : trace_(trace), start_ns_(start_ns) {}
  /// The slice `now_ns` falls in.
  int64_t Index(uint64_t now_ns) const;
  bool TracedAt(uint64_t now_ns) const;
  bool traced(int64_t slice) const { return trace_ && slice % 2 == 1; }
  uint64_t start_ns() const { return start_ns_; }

 private:
  bool trace_;
  uint64_t start_ns_;
};

/// The peak resident set size from construction on: the kernel's exact
/// high-water mark (VmHWM), reset when the object is made. Where the reset
/// is refused, `Mb` still reads the process's whole-life peak, and
/// `reset()` says so.
class PeakRss {
 public:
  PeakRss();
  double Mb() const;
  bool reset() const { return reset_; }

 private:
  bool reset_ = false;
};

/// Hands back freed heap to the OS, so RSS measures the live data.
void TrimHeap();

/// Per-query distance multiset check against an oracle.
bool SameDistances(const std::vector<kcpq::PairResult>& got,
                   std::vector<double> want);

/// Timing of one query of a measured phase. Untraced queries are grouped
/// into windows (time slices, rounds or batches) for windowed medians.
struct QueryRecord {
  double seconds = 0.0;
  bool traced = false;
  bool ok = false;
  int64_t window = -1;
};

/// How a measured phase's time splits: `windows[w]` is the length of
/// untraced window w (0 when w is traced or cut short by the end of the
/// phase), plus the total untraced and traced time.
struct PhaseTime {
  std::vector<double> windows;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  /// latency_p99_ms is the median over windows of each window's p99
  /// (windows of a fixed query mix, such as file-b0's batches) rather
  /// than the p99 over every query.
  bool p99_per_window = false;
};

/// The time slices of a client-loop phase that ran until `end_ns`.
PhaseTime SlicedTime(const Slices& slices, uint64_t end_ns);

/// Fills qps (median over windows), latency_p50_ms (median over windows
/// of the window median), latency_p99_ms (over every untraced query, or
/// per window under `PhaseTime::p99_per_window`) and
/// the trace overhead. Medians over windows keep a burst of outside load
/// on the machine from moving a run's figures.
void ReportQueryTiming(const std::vector<QueryRecord>& records,
                       const PhaseTime& time, Report* report);

/// Inserts `points` (ids 0..n-1) one by one, the paper's construction,
/// through a buffer that holds the whole tree, then writes it out to
/// `store`. Returns the seconds spent inside RStarTree::Create / Insert.
double BuildTree(kcpq::StorageManager* store,
                 const std::vector<kcpq::Point>& points, kcpq::PageId* meta);

/// Span-derived per-layer metrics and the self-time identity of a traced
/// run. `traced_queries` normalises the per-query figures; on workloads
/// that reach the engines through BatchKClosestPairs
/// (`engine_inside_exec`) the engine's time is the exec span's self time.
void ReportSpans(const std::vector<std::vector<Span>>& threads,
                 const std::vector<uint64_t>& op_wall_ns,
                 uint64_t traced_queries, bool engine_inside_exec,
                 Report* report);

// --------------------------------------------------------------- workloads

Report RunMemMix(const Args& args);
Report RunFileB0(const Args& args);
Report RunMirrorTail(const Args& args);
Report RunPaperLru(const Args& args);

}  // namespace cpqbench

#endif  // CPQBENCH_WORKLOAD_H_
