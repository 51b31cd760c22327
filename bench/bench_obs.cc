// Telemetry-service overhead guard.
//
// Not a figure of the paper — this harness proves the live telemetry
// service (src/obs/: exporter + in-flight query registry) is cheap enough
// to leave on in production. One binary, two modes of the same batch
// workload, measured by bench_trace's gate (interleaved off/on arms,
// bench_util.h MeasureOverhead):
//
//   off: BatchKClosestPairs with no registry attached.
//   on:  every query registers a live QueryObservation in the registry the
//        HTTP exporter serves on 127.0.0.1:<ephemeral>.
//
// Throughout both, a background scraper issues real GETs against /metrics
// and /queries at the configured cadence (KCPQ_OBS_SCRAPE_MS, default
// 1000 — one scrape per second, the acceptance setting).
//
// The run passes only when the bootstrap 95% CI of the median per-pair
// overhead t_on / t_off - 1 ends at or below KCPQ_OBS_MAX_OVERHEAD
// (default 1%); otherwise, or when the interval is still wider than the
// bound at the pair cap, the bench exits non-zero — CI runs it as a smoke
// job. Every batch also asserts the observability contract: result pairs
// and the paper's disk-access metric bit-identical to the unobserved
// baseline.
//
// Results land in BENCH_obs.json, including the exporter-scrape latency
// histogram summarized by BenchJson::AddHistogramStats.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"
#include "obs/http_exporter.h"
#include "obs/query_registry.h"

namespace kcpq {
namespace bench {
namespace {

constexpr size_t kTreeSize = 100000;
constexpr size_t kBatchQueries = 8;
constexpr size_t kThreads = 2;
// Zero-buffer views (the paper's setting): every node access is a
// physical read, so per-query disk accesses are independent of thread
// interleaving and the bit-identity assertion below is exact.
constexpr size_t kBufferPages = 0;
constexpr size_t kShards = 8;

double EnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name); env != nullptr && *env) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return fallback;
}

std::vector<BatchQuery> MakeBatch() {
  std::vector<BatchQuery> batch(kBatchQueries);
  constexpr size_t kKs[] = {1, 10, 100, 1000};
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = kKs[i % 4];
    batch[i].options.algorithm = CpqAlgorithm::kHeap;
  }
  return batch;
}

struct RunOutcome {
  double seconds = 0.0;
  std::vector<std::vector<double>> distances;  // per query, per rank
  uint64_t disk_accesses = 0;
};

// One timed batch over cold views; `registry` non-null = observed mode.
RunOutcome RunBatch(TreeStore& p, TreeStore& q,
                    const std::vector<BatchQuery>& batch,
                    obs::QueryRegistry* registry) {
  TreeStore::View vp = p.OpenParallelView(kBufferPages, kShards);
  TreeStore::View vq = q.OpenParallelView(kBufferPages, kShards);
  BatchOptions options;
  options.threads = kThreads;
  options.query_registry = registry;
  BatchStats stats;
  Timer timer;
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(*vp.tree, *vq.tree, batch, options, &stats);
  RunOutcome out;
  out.seconds = timer.ElapsedSeconds();
  out.disk_accesses = stats.disk_accesses;
  for (const BatchQueryResult& r : results) {
    KCPQ_CHECK_OK(r.status);
    std::vector<double> distances;
    distances.reserve(r.pairs.size());
    for (const PairResult& pair : r.pairs) distances.push_back(pair.distance);
    out.distances.push_back(std::move(distances));
  }
  return out;
}

bool SameResults(const RunOutcome& a, const RunOutcome& b) {
  return a.distances == b.distances && a.disk_accesses == b.disk_accesses;
}

int Main() {
  PrintFigureHeader("Telemetry-service overhead",
                    "batch wall clock, exporter + registry on vs off");

  const double max_overhead = EnvDouble("KCPQ_OBS_MAX_OVERHEAD", 0.01);
  const double scrape_ms = EnvDouble("KCPQ_OBS_SCRAPE_MS", 1000.0);

  auto store_p = MakeStore(DataKind::kUniform, Scaled(kTreeSize), 1.0, 42);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(kTreeSize), 1.0, 43);
  const std::vector<BatchQuery> batch = MakeBatch();

  // One long-lived exporter + scraper for all "on" reps: the acceptance
  // setting is a server that is simply always being scraped.
  obs::QueryRegistry registry;
  obs::HttpExporter exporter;
  std::string error;
  if (!exporter.Start(0, &registry, &error)) {
    std::fprintf(stderr, "bench_obs: cannot start exporter: %s\n",
                 error.c_str());
    return 1;
  }
  std::atomic<bool> stop_scraper{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    const auto interval =
        std::chrono::microseconds(static_cast<int64_t>(scrape_ms * 1e3));
    auto next = std::chrono::steady_clock::now();
    while (!stop_scraper.load(std::memory_order_relaxed)) {
      if (std::chrono::steady_clock::now() >= next) {
        std::string body;
        if (obs::HttpGet("127.0.0.1", exporter.port(), "/metrics", &body) &&
            obs::HttpGet("127.0.0.1", exporter.port(), "/queries?state=all",
                         &body)) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        next = std::chrono::steady_clock::now() + interval;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Warm up once per mode (first touch pays allocator + registry setup).
  const RunOutcome baseline = RunBatch(*store_p, *store_q, batch, nullptr);
  RunBatch(*store_p, *store_q, batch, &registry);

  BenchJson json("obs");
  bool same = true;
  const OverheadMeasurement m = MeasureOverhead(max_overhead, [&](bool on) {
    const RunOutcome run =
        RunBatch(*store_p, *store_q, batch, on ? &registry : nullptr);
    same = same && SameResults(run, baseline);
    return run.seconds;
  });
  stop_scraper.store(true, std::memory_order_relaxed);
  scraper.join();
  exporter.Stop();
  if (!same) {
    std::fprintf(stderr, "FAIL: results differ across exporter modes\n");
    return 1;
  }
  std::printf("%llu scrapes served\n",
              static_cast<unsigned long long>(scrapes.load()));

  json.AddScalar("seconds_exporter_off", m.seconds_off);
  json.AddScalar("seconds_exporter_on", m.seconds_on);
  m.AddTo(&json);
  json.AddScalar("scrapes", static_cast<double>(scrapes.load()));
  json.AddScalar("queries_recorded", static_cast<double>(registry.done_count()));
  json.AddHistogramStats("scrape_seconds", "kcpq_obs_scrape_seconds");
  json.Write();

  if (!m.passed()) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %s: median %.2f%%, 95%% CI up to "
                 "%.2f%%, limit %.1f%%\n",
                 m.VerdictName(), m.median * 100, m.ci_high * 100,
                 m.bound * 100);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { return kcpq::bench::Main(); }
