// Observability overhead guard.
//
// Not a figure of the paper — this harness proves the metrics layer
// (src/obs/) is cheap enough to leave on. One binary, two modes: the same
// uniform 100K x 100K HEAP K = 10 query is timed with the runtime metrics
// switch off (obs::SetEnabled(false): every KCPQ_METRIC_* macro reduces
// to one predicted branch) and on (counters actually increment), in
// interleaved off/on arms (bench_util.h, MeasureOverhead). The run passes
// only when the bootstrap 95% CI of the median per-pair overhead
//
//   t_on / t_off - 1
//
// ends at or below KCPQ_TRACE_MAX_OVERHEAD (default 5%); an interval still
// wider than the bound at the pair cap fails as unresolved. CI runs it as
// a smoke job.
//
// Results land in BENCH_trace.json for machine consumption.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "obs/metrics.h"

namespace kcpq {
namespace bench {
namespace {

double MaxOverhead() {
  if (const char* env = std::getenv("KCPQ_TRACE_MAX_OVERHEAD");
      env != nullptr && *env) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.05;
}

int Main() {
  PrintFigureHeader("Observability overhead",
                    "metrics-on vs metrics-off query latency");
  std::printf("metrics compiled in: %s\n",
              obs::MetricsCompiledIn() ? "yes" : "no (KCPQ_METRICS=0)");

  auto store_p = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 42);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 43);
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;

  const OverheadMeasurement m =
      MeasureOverhead(MaxOverhead(), [&](bool on) {
        obs::SetEnabled(on);
        return RunCpq(*store_p, *store_q, options, 512).seconds;
      });
  obs::SetEnabled(true);

  BenchJson json("trace");
  json.AddScalar("seconds_metrics_off", m.seconds_off);
  json.AddScalar("seconds_metrics_on", m.seconds_on);
  m.AddTo(&json);
  json.AddScalar("metrics_compiled_in", obs::MetricsCompiledIn() ? 1.0 : 0.0);
  json.Write();

  if (!m.passed()) {
    std::fprintf(stderr,
                 "FAIL: metrics overhead %s: median %.2f%%, 95%% CI up to "
                 "%.2f%%, limit %.0f%%\n",
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
