#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>

#include "buffer/replacement_policy.h"
#include "storage/latency_storage.h"

namespace kcpq {
namespace bench {

double ReproScale() {
  static const double scale = [] {
    const char* env = std::getenv("REPRO_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

size_t Scaled(size_t n) {
  const double v = static_cast<double>(n) * ReproScale();
  return std::max<size_t>(16, static_cast<size_t>(v));
}

TreeStore::TreeStore(DataKind kind, size_t n, const Rect& workspace,
                     uint64_t seed, const RTreeOptions& options) {
  const std::vector<Point> points =
      kind == DataKind::kUniform ? GenerateUniform(n, workspace, seed)
                                 : GenerateSequoiaLike(n, workspace, seed);
  BufferManager build_buffer(&storage_, 0);
  auto created = RStarTree::Create(&build_buffer, options);
  KCPQ_CHECK_OK(created.status());
  auto tree = std::move(created).value();
  for (size_t i = 0; i < points.size(); ++i) {
    KCPQ_CHECK_OK(tree->Insert(points[i], i));
  }
  KCPQ_CHECK_OK(tree->Flush());
  meta_ = tree->meta_page();
  size_ = tree->size();
  height_ = tree->height();
}

TreeStore::View TreeStore::OpenView(size_t buffer_pages) {
  View view;
  view.buffer = std::make_unique<BufferManager>(&storage_, buffer_pages);
  auto opened = RStarTree::Open(view.buffer.get(), meta_);
  KCPQ_CHECK_OK(opened.status());
  view.tree = std::move(opened).value();
  return view;
}

TreeStore::View TreeStore::OpenParallelView(
    size_t buffer_pages, size_t shards,
    std::chrono::microseconds read_latency) {
  View view;
  StorageManager* storage = &storage_;
  if (read_latency.count() > 0) {
    view.slow_storage =
        std::make_unique<LatencyStorageManager>(&storage_, read_latency);
    storage = view.slow_storage.get();
  }
  view.buffer = std::make_unique<BufferManager>(
      storage, buffer_pages, shards, [] { return MakeLruPolicy(); });
  auto opened = RStarTree::Open(view.buffer.get(), meta_);
  KCPQ_CHECK_OK(opened.status());
  view.tree = std::move(opened).value();
  return view;
}

std::unique_ptr<TreeStore> MakeStore(DataKind kind, size_t n, double overlap,
                                     uint64_t seed) {
  return std::make_unique<TreeStore>(
      kind, n, ShiftedWorkspace(UnitWorkspace(), overlap), seed);
}

QueryOutcome RunCpq(TreeStore& p, TreeStore& q, const CpqOptions& options,
                    size_t buffer_pages_total) {
  TreeStore::View vp = p.OpenView(buffer_pages_total / 2);
  TreeStore::View vq = q.OpenView(buffer_pages_total / 2);
  QueryOutcome outcome;
  Timer timer;
  auto result = KClosestPairs(*vp.tree, *vq.tree, options, &outcome.stats);
  KCPQ_CHECK_OK(result.status());
  outcome.seconds = timer.ElapsedSeconds();
  if (!result.value().empty()) {
    outcome.result_distance = result.value().back().distance;
  }
  return outcome;
}

HsOutcome RunHs(TreeStore& p, TreeStore& q, size_t k, const HsOptions& options,
                size_t buffer_pages_total) {
  TreeStore::View vp = p.OpenView(buffer_pages_total / 2);
  TreeStore::View vq = q.OpenView(buffer_pages_total / 2);
  HsOutcome outcome;
  Timer timer;
  auto result = HsKClosestPairs(*vp.tree, *vq.tree, k, options, &outcome.stats);
  KCPQ_CHECK_OK(result.status());
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

void PrintFigureHeader(const std::string& figure,
                       const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("(Corral et al., SIGMOD 2000; REPRO_SCALE=%.3g)\n", ReproScale());
  std::printf("==============================================================\n");
}

namespace {

// Escapes a string for embedding in a JSON document.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Emits a cell as a bare JSON number when it parses fully as one (so
// downstream tooling can chart it), otherwise as a quoted string.
std::string JsonCell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    std::strtod(cell.c_str(), &end);
    if (end != nullptr && *end == '\0') return cell;
  }
  std::string quoted;
  quoted.push_back('"');
  quoted.append(JsonEscape(cell));
  quoted.push_back('"');
  return quoted;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

obs::MetricsSnapshot CaptureMetrics() {
  return obs::MetricsRegistry::Global().Snapshot();
}

void BenchJson::AddScalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

void BenchJson::AddHistogramStats(const std::string& key,
                                  const std::string& metric_name) {
  const obs::MetricsSnapshot delta =
      obs::MetricsSnapshot::Delta(metrics_baseline_, CaptureMetrics());
  const obs::MetricsSnapshot::HistogramValue* h =
      delta.FindHistogram(metric_name);
  if (h == nullptr || h->count == 0) return;

  // Quantile from the cumulative bucket counts, linearly interpolated
  // within the winning bucket. The +inf bucket has no width; report its
  // lower edge (the last finite bound).
  const auto quantile = [h](double q) {
    const uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(h->count - 1)) + 1;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h->bucket_counts.size(); ++i) {
      const uint64_t in_bucket = h->bucket_counts[i];
      if (cumulative + in_bucket < rank) {
        cumulative += in_bucket;
        continue;
      }
      const double lo = i == 0 ? 0.0 : h->bounds[i - 1];
      if (i >= h->bounds.size()) return lo;  // +inf bucket
      const double hi = h->bounds[i];
      const double frac = in_bucket == 0
                              ? 0.0
                              : static_cast<double>(rank - cumulative) /
                                    static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    return h->bounds.empty() ? 0.0 : h->bounds.back();
  };

  AddScalar(key + "_count", static_cast<double>(h->count));
  AddScalar(key + "_mean", h->sum / static_cast<double>(h->count));
  AddScalar(key + "_p50", quantile(0.50));
  AddScalar(key + "_p99", quantile(0.99));
}

void BenchJson::AddTable(const std::string& key, const Table& table) {
  tables_.emplace_back(key, table);
}

void BenchJson::Write() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << JsonEscape(name_) << "\",\n"
      << "  \"repro_scale\": " << FormatDouble(ReproScale()) << ",\n"
      << "  \"scalars\": {";
  for (size_t i = 0; i < scalars_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(scalars_[i].first)
        << "\": " << FormatDouble(scalars_[i].second);
  }
  out << (scalars_.empty() ? "" : "\n  ") << "},\n  \"tables\": {";
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t].second;
    out << (t == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(tables_[t].first)
        << "\": {\n      \"header\": [";
    for (size_t c = 0; c < table.header().size(); ++c) {
      out << (c == 0 ? "" : ", ") << "\"" << JsonEscape(table.header()[c])
          << "\"";
    }
    out << "],\n      \"rows\": [";
    for (size_t r = 0; r < table.rows().size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "        [";
      const auto& row = table.rows()[r];
      for (size_t c = 0; c < row.size(); ++c) {
        out << (c == 0 ? "" : ", ") << JsonCell(row[c]);
      }
      out << "]";
    }
    out << (table.rows().empty() ? "" : "\n      ") << "]\n    }";
  }
  out << (tables_.empty() ? "" : "\n  ") << "},\n  \"metrics\": "
      << obs::MetricsSnapshot::Delta(metrics_baseline_, CaptureMetrics())
             .ToJson()
      << "\n}\n";

  std::string dir;
  if (const char* env = std::getenv("BENCH_DIR"); env != nullptr && *env) {
    dir = std::string(env) + "/";
  }
  const std::string path = dir + "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchJson: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  const std::string body = out.str();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

namespace {

// The overhead gate's constants. An arm repeats its run for at least
// 50 ms, so it holds a few runs of the smoke-scale workloads and its median
// ignores one descheduled run. On a shared 4-vCPU VM one pair's overhead
// still scatters by about 8% (standard deviation over 300 bench_obs
// pairs), so resolving a 1% bound takes hundreds of pairs: the interval is
// evaluated at 10, 20, 40, ... pairs — a few looks, not one per pair,
// which would inflate the chance of a lucky early pass — up to the cap of
// 640 pairs, about a minute of either bench.
constexpr double kMinArmSeconds = 0.05;
constexpr size_t kMinPairs = 10;
constexpr size_t kMaxPairs = 640;
constexpr size_t kBootstrapResamples = 2000;

double Median(std::vector<double> v) {
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(),
                            v.begin() + static_cast<ptrdiff_t>(mid)) +
          upper) /
         2.0;
}

/// Percentile bootstrap of the median: a fixed seed, so one set of
/// samples always gives one interval.
void BootstrapMedianCi(const std::vector<double>& samples, double* low,
                       double* high) {
  std::mt19937_64 rng(20001);
  std::uniform_int_distribution<size_t> pick(0, samples.size() - 1);
  std::vector<double> medians(kBootstrapResamples);
  std::vector<double> resample(samples.size());
  for (double& m : medians) {
    for (double& x : resample) x = samples[pick(rng)];
    m = Median(resample);
  }
  std::sort(medians.begin(), medians.end());
  *low = medians[kBootstrapResamples * 25 / 1000];
  *high = medians[kBootstrapResamples * 975 / 1000 - 1];
}

/// One arm: repeats `run(on)` for at least kMinArmSeconds of wall clock;
/// returns the median of the seconds the runs report, so one run slowed
/// by a descheduled thread does not move the arm.
double RunArm(const std::function<double(bool on)>& run, bool on) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> seconds;
  do {
    seconds.push_back(run(on));
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < kMinArmSeconds);
  return Median(std::move(seconds));
}

}  // namespace

const char* OverheadMeasurement::VerdictName() const {
  switch (verdict) {
    case Verdict::kPass: return "pass";
    case Verdict::kOverBound: return "over bound";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "unknown";
}

void OverheadMeasurement::AddTo(BenchJson* json) const {
  json->AddScalar("overhead", median);
  json->AddScalar("overhead_ci_low", ci_low);
  json->AddScalar("overhead_ci_high", ci_high);
  json->AddScalar("max_overhead", bound);
  json->AddScalar("pairs", static_cast<double>(overheads.size()));
  json->AddScalar("passed", passed() ? 1.0 : 0.0);
}

OverheadMeasurement MeasureOverhead(
    double bound, const std::function<double(bool on)>& run) {
  OverheadMeasurement m;
  m.bound = bound;
  // Warm both arms (first touch pays allocator and registry set-up).
  RunArm(run, false);
  RunArm(run, true);
  std::vector<double> offs, ons;
  size_t next_look = kMinPairs;
  for (size_t pair = 0; pair < kMaxPairs; ++pair) {
    // Alternate which arm runs first, so slow drift inflates both sides.
    const bool on_first = pair % 2 == 1;
    const double first = RunArm(run, on_first);
    const double second = RunArm(run, !on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    offs.push_back(off);
    ons.push_back(on);
    m.overheads.push_back(off > 0.0 ? on / off - 1.0 : 0.0);
    std::printf("pair %zu: off %.3f ms, on %.3f ms, overhead %+.2f%%\n",
                pair + 1, off * 1e3, on * 1e3, m.overheads.back() * 100);
    if (m.overheads.size() < next_look) continue;
    next_look *= 2;
    m.median = Median(m.overheads);
    BootstrapMedianCi(m.overheads, &m.ci_low, &m.ci_high);
    if (m.ci_high <= bound) {
      m.verdict = OverheadMeasurement::Verdict::kPass;
      break;
    }
    if (m.ci_low > bound) {
      m.verdict = OverheadMeasurement::Verdict::kOverBound;
      break;
    }
    m.verdict = m.ci_high - m.ci_low > bound
                    ? OverheadMeasurement::Verdict::kUnresolved
                    : OverheadMeasurement::Verdict::kOverBound;
  }
  m.seconds_off = Median(offs);
  m.seconds_on = Median(ons);
  std::printf(
      "%zu pairs: off %.3f ms, on %.3f ms, overhead median %+.2f%%, 95%% CI "
      "[%+.2f%%, %+.2f%%], bound %.1f%%: %s\n",
      m.overheads.size(), m.seconds_off * 1e3, m.seconds_on * 1e3,
      m.median * 100, m.ci_low * 100, m.ci_high * 100, bound * 100,
      m.VerdictName());
  return m;
}

}  // namespace bench
}  // namespace kcpq
