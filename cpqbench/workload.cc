#include "workload.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "rtree/rtree.h"

namespace cpqbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kZeroableEndToEndMetrics = {
    {"disk_accesses_per_query", "count/query"},
    {"inserts_per_s", "1/s"},
    {"insert_p99_us", "us"},
    {"failed_frac", "share"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"exec.self_ms_per_query", "ms"},
    {"exec.parks_per_query", "count/query"},
    {"exec.steps_per_query", "count/query"},
    {"exec.parked_share", "share"},
    {"exec.inflight_peak", "count"},
    {"cpq.self_ms_per_query", "ms"},
    {"cpq.node_pairs_per_query", "count/query"},
    {"cpq.distances_per_query", "count/query"},
    {"cpq.sweep_skip_ratio", "share"},
    {"cpq.prune_ratio", "share"},
    {"hs.items_popped_per_query", "count/query"},
    {"hs.spill_reads", "count/query"},
    {"rtree.insert_us_p50", "us"},
    {"rtree.erase_us_p50", "us"},
    {"rtree.build_s", "s"},
    {"rtree.node_accesses_per_query", "count/query"},
    {"buffer.hit_ratio", "share"},
    {"buffer.evictions_per_query", "count/query"},
    {"buffer.writebacks_per_insert", "count/op"},
    {"common.query_peak_kb_p99", "KiB"},
    {"storage.self_ms_per_query", "ms"},
    {"storage.reads_per_query", "count/query"},
    {"storage.writes_per_insert", "count/op"},
    {"storage.read_p50_us", "us"},
    {"storage.read_p99_us", "us"},
    {"storage.read_busy_share", "share"},
    {"storage.uring_reads_per_enter", "count"},
    {"storage.uring_cqes_per_wake", "count"},
    {"storage.uring_sq_full_stalls", "count/query"},
    {"storage.replica_read_p99_us", "us"},
    {"storage.hedges_per_read", "count/read"},
    {"storage.hedge_win_ratio", "share"},
    {"storage.failovers", "count/query"},
    {"obs.trace_overhead_frac", "share"},
    {"unattributed_share", "share"},
    {"disk_accesses_per_query", "count/query"},
    {"inserts_per_s", "1/s"},
    {"insert_p99_us", "us"},
    {"failed_frac", "share"},
};

void Check(const kcpq::Status& status, const char* what) {
  if (!status.ok()) {
    throw SetupError(std::string(what) + ": " + status.ToString());
  }
}

Sizes Sizes::For(const Args& args) {
  Sizes s;
  if (args.smoke) {
    s.points = 3000;
    s.mirror_points = 3000;
    s.lru_points = 2000;
    s.fixed_queries = 60;
    s.batch = 32;
    s.lru_pages = 32;
    s.updates = 20;
    s.oracle_samples = 8;
    s.setup_reps = 3;
  }
  return s;
}

// ---------------------------------------------------------------- queries

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRect:
      return "rect";
    case QueryKind::kClosestHeap:
      return "closest-heap";
    case QueryKind::kClosestStd:
      return "closest-std";
    case QueryKind::kSelf:
      return "self";
    case QueryKind::kFarthest:
      return "farthest";
    case QueryKind::kHs:
      return "hs";
  }
  return "?";
}

QuerySpec QueryStream::At(uint64_t index) const {
  constexpr uint64_t kBlock = 20;
  constexpr uint64_t kWholePerBlock = 3;
  static constexpr size_t kWholeK[4] = {1, 10, 100, 1000};
  static constexpr size_t kSmallK[3] = {1, 10, 100};
  const uint64_t block = index / kBlock;
  const uint64_t pos = index % kBlock;
  QuerySpec q;
  if (!rect_only_) {
    uint64_t slots[kBlock];
    for (uint64_t j = 0; j < kBlock; ++j) slots[j] = j;
    const uint64_t h = Mix(seed_, block);
    for (uint64_t j = 0; j < kWholePerBlock; ++j) {
      std::swap(slots[j], slots[j + Mix(h, j) % (kBlock - j)]);
      if (slots[j] != pos) continue;
      // Each group of 11 blocks holds every variant 3 times; the order
      // rotates by one from group to group, the same for every seed.
      const uint64_t v =
          (kWholePerBlock * block + j + block / kWholeVariants) %
          kWholeVariants;
      const uint64_t r = Mix(h, 100 + j);
      if (v < 4) {
        q.kind = QueryKind::kClosestHeap;
        q.k = kWholeK[v];
      } else if (v < 8) {
        q.kind = QueryKind::kClosestStd;
        q.k = kWholeK[v - 4];
      } else if (v == 8) {
        q.kind = QueryKind::kSelf;
        q.k = kSmallK[r % 3];
      } else if (v == 9) {
        q.kind = QueryKind::kFarthest;
        q.k = kSmallK[r % 3];
      } else {
        q.kind = QueryKind::kHs;
        q.k = 100;
      }
      return q;
    }
  }
  // Rect-restricted: sides 2-20% of the workspace, K in {1, 10, 100}.
  const uint64_t h = Mix(seed_ ^ 0x7265637473ULL, index);
  q.kind = QueryKind::kRect;
  q.k = kSmallK[Mix(h, 5) % 3];
  for (int d = 0; d < kcpq::kDims; ++d) {
    const double extent = workspace_.hi[d] - workspace_.lo[d];
    const double side = (0.02 + 0.18 * Unit(Mix(h, 1 + d))) * extent;
    q.rect.lo[d] = workspace_.lo[d] + Unit(Mix(h, 3 + d)) * (extent - side);
    q.rect.hi[d] = q.rect.lo[d] + side;
  }
  return q;
}

kcpq::BatchQuery ToBatchQuery(const QuerySpec& spec) {
  kcpq::BatchQuery b;
  b.options.k = spec.k;
  b.options.algorithm = kcpq::CpqAlgorithm::kHeap;
  switch (spec.kind) {
    case QueryKind::kRect:
      b.options.family = kcpq::QueryFamily::kRangeClosest;
      b.options.query_rect = spec.rect;
      break;
    case QueryKind::kClosestHeap:
      break;
    case QueryKind::kClosestStd:
      b.options.algorithm = kcpq::CpqAlgorithm::kSortedDistances;
      break;
    case QueryKind::kSelf:
      b.kind = kcpq::BatchQueryKind::kSelfClosestPairs;
      break;
    case QueryKind::kFarthest:
      b.options.family = kcpq::QueryFamily::kFarthest;
      break;
    case QueryKind::kHs:
      b.kind = kcpq::BatchQueryKind::kHsClosestPairs;
      break;
  }
  return b;
}

// ----------------------------------------------------------------- helpers

uint64_t Mix(uint64_t a, uint64_t b) {
  kcpq::SplitMix64 s(a * 0x9e3779b97f4a7c15ULL + b);
  s.Next();
  return s.Next();
}

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

Items ToItems(const std::vector<kcpq::Point>& points, uint64_t first_id) {
  Items items;
  items.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    items.emplace_back(points[i], first_id + i);
  }
  return items;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
constexpr uint64_t kSliceNs = static_cast<uint64_t>(kSliceSeconds * 1e9);
}  // namespace

int64_t Slices::Index(uint64_t now_ns) const {
  return static_cast<int64_t>((now_ns - start_ns_) / kSliceNs);
}

bool Slices::TracedAt(uint64_t now_ns) const { return traced(Index(now_ns)); }

PhaseTime SlicedTime(const Slices& slices, uint64_t end_ns) {
  PhaseTime t;
  const int64_t full = slices.Index(end_ns);
  const double slice_s = static_cast<double>(kSliceNs) * 1e-9;
  for (int64_t w = 0; w <= full; ++w) {
    const uint64_t from = slices.start_ns() + w * kSliceNs;
    const double len =
        static_cast<double>(std::min(end_ns, from + kSliceNs) - from) * 1e-9;
    (slices.traced(w) ? t.traced_s : t.untraced_s) += len;
    if (w < full) t.windows.push_back(slices.traced(w) ? 0.0 : slice_s);
  }
  return t;
}

PeakRss::PeakRss() {
  // Writing 5 to clear_refs sets this process's VmHWM to its current RSS.
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  reset_ = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) reset_ = std::fclose(f) == 0 && reset_;
}

double PeakRss::Mb() const {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

void TrimHeap() { ::malloc_trim(0); }

bool SameDistances(const std::vector<kcpq::PairResult>& got,
                   std::vector<double> want) {
  if (got.size() != want.size()) return false;
  std::vector<double> have;
  have.reserve(got.size());
  for (const kcpq::PairResult& r : got) have.push_back(r.distance);
  std::sort(have.begin(), have.end());
  std::sort(want.begin(), want.end());
  for (size_t i = 0; i < have.size(); ++i) {
    if (std::fabs(have[i] - want[i]) > 1e-9 * std::max(1.0, want[i])) {
      return false;
    }
  }
  return true;
}

void ReportQueryTiming(const std::vector<QueryRecord>& records,
                       const PhaseTime& time, Report* report) {
  std::vector<std::vector<double>> by_window(time.windows.size());
  std::vector<double> latency_ms;
  uint64_t ok_traced = 0;
  for (const QueryRecord& r : records) {
    if (!r.ok) continue;
    if (r.traced) {
      ++ok_traced;
      continue;
    }
    latency_ms.push_back(r.seconds * 1e3);
    if (r.window >= 0 && static_cast<size_t>(r.window) < by_window.size()) {
      by_window[r.window].push_back(r.seconds * 1e3);
    }
  }
  std::vector<double> window_qps, window_p50, window_p99;
  for (size_t w = 0; w < by_window.size(); ++w) {
    if (time.windows[w] <= 0.0) continue;
    window_qps.push_back(static_cast<double>(by_window[w].size()) /
                         time.windows[w]);
    if (by_window[w].empty()) continue;
    window_p50.push_back(Median(by_window[w]));
    window_p99.push_back(Percentile(by_window[w], 0.99));
  }
  const uint64_t n = latency_ms.size();
  report->Set("qps", Median(window_qps), n);
  report->Set("latency_p50_ms", Median(window_p50), n);
  report->Set("latency_p99_ms",
              time.p99_per_window ? Median(window_p99)
                                  : Percentile(latency_ms, 0.99),
              n);
  report->Note("windows: " + std::to_string(window_qps.size()) +
               " untraced windows for the qps and p50 medians");
  if (time.traced_s > 0.0 && time.untraced_s > 0.0 && n > 0) {
    const double untraced_qps = static_cast<double>(n) / time.untraced_s;
    const double traced_qps = static_cast<double>(ok_traced) / time.traced_s;
    report->Set("obs.trace_overhead_frac", 1.0 - traced_qps / untraced_qps,
                ok_traced);
  }
}

double BuildTree(kcpq::StorageManager* store,
                 const std::vector<kcpq::Point>& points, kcpq::PageId* meta) {
  kcpq::BufferManager build(store, points.size() / 2 + 64);
  const uint64_t start = NowNs();
  auto tree = Take(kcpq::RStarTree::Create(&build), "create tree");
  for (size_t i = 0; i < points.size(); ++i) {
    Check(tree->Insert(points[i], i), "insert");
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  Check(tree->Flush(), "flush tree");
  *meta = tree->meta_page();
  return seconds;
}

void ReportSpans(const std::vector<std::vector<Span>>& threads,
                 const std::vector<uint64_t>& op_wall_ns,
                 uint64_t traced_queries, bool engine_inside_exec,
                 Report* report) {
  const SpanAnalysis a = AnalyzeSpans(threads, op_wall_ns);
  const double q = static_cast<double>(traced_queries);
  const auto per_query_ms = [&](double s) { return q > 0 ? s * 1e3 / q : 0.0; };
  const double exec = a.LayerSelf("exec");
  const double engine = engine_inside_exec ? exec
                                           : a.LayerSelf("cpq") +
                                                 a.LayerSelf("hs");
  report->Set("exec.self_ms_per_query", per_query_ms(exec), traced_queries);
  report->Set("cpq.self_ms_per_query", per_query_ms(engine), traced_queries);
  report->Set("storage.self_ms_per_query",
              per_query_ms(a.LayerSelf("storage")), traced_queries);
  const std::vector<double>& reads = a.durations_us[kStorageRead];
  if (!reads.empty()) {
    report->Set("storage.read_p50_us", Percentile(reads, 0.50), reads.size());
    report->Set("storage.read_p99_us", Percentile(reads, 0.99), reads.size());
    report->Set("storage.read_busy_share",
                a.wall_s > 0 ? a.total_s[kStorageRead] / a.wall_s : 0.0,
                reads.size());
  }
  const std::vector<double>& replica = a.durations_us[kReplicaRead];
  if (!replica.empty()) {
    report->Set("storage.replica_read_p99_us", Percentile(replica, 0.99),
                replica.size());
  }
  for (SpanName n : {kRtreeInsert, kRtreeErase}) {
    if (a.durations_us[n].empty()) continue;
    report->Set(n == kRtreeInsert ? "rtree.insert_us_p50"
                                  : "rtree.erase_us_p50",
                Percentile(a.durations_us[n], 0.50), a.durations_us[n].size());
  }
  report->Set("unattributed_share",
              a.wall_s > 0 ? a.unattributed_s / a.wall_s : 0.0, a.ops);

  char line[512];
  std::snprintf(line, sizeof(line),
                "identity over %llu traced ops: wall %.6f s = exec %.6f + "
                "cpq %.6f + hs %.6f + rtree %.6f + storage %.6f + "
                "unattributed %.6f (structural violations: %llu)",
                static_cast<unsigned long long>(a.ops), a.wall_s, exec,
                a.LayerSelf("cpq"), a.LayerSelf("hs"), a.LayerSelf("rtree"),
                a.LayerSelf("storage"), a.unattributed_s,
                static_cast<unsigned long long>(a.violations));
  report->Note(line);
  if (a.ops == 0) report->Mismatch("traced run recorded no operation");
  if (a.violations > 0 || a.unattributed_s < -1e-9 * a.wall_s) {
    report->Mismatch("span identity does not hold");
  }
}

}  // namespace cpqbench
