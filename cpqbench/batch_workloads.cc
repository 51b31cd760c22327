// mem-mix, file-b0 and mirror-tail: the same seeded query mix (rect-only
// on mirror-tail) driven through BatchKClosestPairs over three storage
// stacks. METRICS.md says why each workload exists.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

#include "datagen/datagen.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "rtree/rtree.h"
#include "spans.h"
#include "storage/file_storage.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "storage/mirrored_storage.h"
#include "timed_storage.h"
#include "workload.h"

namespace cpqbench {
namespace {

using kcpq::BatchOptions;
using kcpq::BatchQuery;
using kcpq::BatchQueryResult;
using kcpq::BufferManager;
using kcpq::CpqStats;
using kcpq::PageId;
using kcpq::Point;
using kcpq::QueryOutcome;
using kcpq::RStarTree;
using kcpq::StorageManager;

enum class Stack { kMemory, kFile, kMirror };

struct Shape {
  Stack stack;
  bool rect_only;
  uint64_t query_salt;  // query stream seed = Mix(seed, query_salt)
  bool whole_buffer;    // buffer holds the whole tree (else B = 0)
  bool resumable;       // batches on the resumable scheduler (file-b0)
};

constexpr Shape kMemMix{Stack::kMemory, false, 3, true, false};
constexpr Shape kFileB0{Stack::kFile, false, 4, false, true};
constexpr Shape kMirrorTail{Stack::kMirror, true, 5, false, false};

constexpr size_t kMaxInflight = 128;

/// One tree over a storage stack the benchmark composes. `layers` runs
/// bottom to top and is torn down top first.
struct StackTree {
  std::vector<std::unique_ptr<StorageManager>> layers;
  kcpq::FileStorageManager* file = nullptr;
  kcpq::MirroredStorageManager* mirror = nullptr;
  std::string path;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RStarTree> tree;

  StackTree() = default;
  StackTree(const StackTree&) = delete;
  StackTree& operator=(const StackTree&) = delete;
  ~StackTree() {
    tree.reset();
    buffer.reset();
    while (!layers.empty()) layers.pop_back();
    if (!path.empty()) ::unlink(path.c_str());
  }

  StorageManager* top() const { return layers.back().get(); }
};

/// Reads a file once so its pages sit in the OS page cache.
void WarmPageCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chunk(1 << 20);
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
  }
}

/// Seed of the simulated devices' slow-read lottery. The devices are part
/// of the environment, not the workload's input, so it does not vary with
/// the workload seed (bench_hedged fixes it too).
constexpr uint64_t kDeviceSeed = 41;

kcpq::LatencyProfile HeavyTail(uint64_t seed) {
  kcpq::LatencyProfile latency;
  latency.read_latency = std::chrono::microseconds(100);
  latency.slow_probability = 0.02;
  latency.slow_latency = std::chrono::microseconds(20000);
  latency.seed = seed;
  return latency;
}

std::unique_ptr<StackTree> SetUpTree(const Shape& shape,
                                     const std::vector<Point>& points,
                                     const std::string& path,
                                     uint64_t replica_seed, double* rtree_s) {
  auto t = std::make_unique<StackTree>();
  switch (shape.stack) {
    case Stack::kMemory:
      t->layers.push_back(std::make_unique<kcpq::MemoryStorageManager>());
      t->layers.push_back(
          std::make_unique<TimedStorageManager>(t->top(), false));
      break;
    case Stack::kFile: {
      auto file = Take(kcpq::FileStorageManager::Create(path), "create file");
      t->file = file.get();
      t->path = path;
      t->layers.push_back(std::move(file));
      break;
    }
    case Stack::kMirror: {
      std::vector<StorageManager*> replicas;
      for (uint64_t r = 0; r < 2; ++r) {
        t->layers.push_back(std::make_unique<kcpq::MemoryStorageManager>());
        t->layers.push_back(std::make_unique<kcpq::LatencyStorageManager>(
            t->top(), HeavyTail(Mix(replica_seed, r))));
        t->layers.push_back(
            std::make_unique<TimedStorageManager>(t->top(), true));
        replicas.push_back(t->top());
      }
      kcpq::MirroredOptions options;
      options.hedge.mode = kcpq::HedgeMode::kAdaptive;
      options.hedge.static_delay = std::chrono::microseconds(300);
      options.hedge.min_samples = 16;
      auto mirror = std::make_unique<kcpq::MirroredStorageManager>(
          std::move(replicas), options);
      t->mirror = mirror.get();
      t->layers.push_back(std::move(mirror));
      t->layers.push_back(
          std::make_unique<TimedStorageManager>(t->top(), false));
      break;
    }
  }
  PageId meta = kcpq::kInvalidPageId;
  *rtree_s = BuildTree(t->top(), points, &meta);
  Check(t->top()->Sync(), "sync");
  if (t->file != nullptr) {
    WarmPageCache(path);
    kcpq::FileStorageManager::UringOptions uring;
    uring.sq_depth = kMaxInflight;
    t->file->ConfigureUring(uring);
    if (t->file->SupportsIoBackend(kcpq::IoBackend::kUring)) {
      Check(t->file->SetIoBackend(kcpq::IoBackend::kUring), "select uring");
    }
  }
  const size_t capacity = shape.whole_buffer ? 2 * t->top()->PageCount() : 0;
  t->buffer = std::make_unique<BufferManager>(
      t->top(), capacity, kBufferShards, [] { return kcpq::MakeLruPolicy(); });
  t->tree = Take(RStarTree::Open(t->buffer.get(), meta), "open tree");
  if (shape.whole_buffer) {
    Check(t->tree->ScanLeaves([](const kcpq::Node&) { return true; }),
          "warm buffer");
  }
  return t;
}

BatchOptions OptionsFor(const Shape& shape) {
  BatchOptions options;
  if (shape.resumable) {
    options.threads = kClients;
    options.scheduler = kcpq::SchedulerMode::kResumable;
    options.max_inflight = kMaxInflight;
  } else {
    options.threads = 1;
  }
  return options;
}

/// The per-query counters the report sums (CpqStats without its
/// certificate, which owns a vector).
struct Work {
  uint64_t disk_accesses = 0;
  uint64_t node_accesses = 0;
  uint64_t node_pairs = 0;
  uint64_t distances = 0;
  uint64_t skipped = 0;
  uint64_t generated = 0;
  uint64_t pruned = 0;
  uint64_t parks = 0;
  uint64_t parked_ns = 0;
};

Work WorkOf(const CpqStats& s) {
  return Work{s.disk_accesses(),           s.node_accesses,
              s.node_pairs_processed,      s.point_distance_computations,
              s.leaf_pairs_skipped,        s.candidate_pairs_generated,
              s.candidate_pairs_pruned,    s.io_parks,
              s.io_parked_ns};
}

/// What the measured phase keeps of one query.
struct Done {
  uint64_t index = 0;
  QueryKind kind = QueryKind::kRect;
  QueryRecord record;
  Work work;
  uint64_t peak_memory_bytes = 0;
};

bool Ok(const BatchQueryResult& r) {
  return r.status.ok() && r.outcome == QueryOutcome::kOk;
}

/// Oracle answers and first-execution counts for a seeded sample of the
/// stream prefix every run completes.
struct Expected {
  std::vector<double> distances;
  uint64_t disk_accesses = 0;
  uint64_t node_pairs = 0;
};

std::vector<uint64_t> SampleIndices(const QueryStream& stream, size_t fixed,
                                    size_t samples, uint64_t seed,
                                    bool rect_only) {
  std::set<uint64_t> picked;
  for (size_t j = 0; j < samples; ++j) {
    picked.insert(Mix(seed, 1000 + j) % fixed);
  }
  if (!rect_only) {
    // Every whole-workspace variant at least once: they are the queries
    // whose engines differ.
    std::set<std::pair<int, size_t>> seen;
    for (uint64_t i = 0; i < fixed; ++i) {
      const QuerySpec q = stream.At(i);
      if (q.kind == QueryKind::kRect) continue;
      if (seen.insert({static_cast<int>(q.kind), q.k}).second) {
        picked.insert(i);
      }
    }
  }
  return {picked.begin(), picked.end()};
}

class Runner {
 public:
  Runner(const Shape& shape, const Args& args)
      : shape_(shape),
        args_(args),
        sizes_(Sizes::For(args)),
        stream_(Mix(args.seed, shape.query_salt), kcpq::UnitWorkspace(),
                shape.rect_only),
        fixed_(shape.resumable ? (sizes_.fixed_queries + sizes_.batch - 1) /
                                     sizes_.batch * sizes_.batch
                               : sizes_.fixed_queries) {}

  Report Run();

 private:
  void SetUp();
  void PrepareChecks();
  void CheckQuery(uint64_t index, const BatchQueryResult& r);
  void MeasureClients();
  void MeasureBatches();
  void Summarize();

  const Shape& shape_;
  const Args& args_;
  const Sizes sizes_;
  const QueryStream stream_;
  const size_t fixed_;
  Report report_;

  Items items_p_, items_q_;
  std::unique_ptr<StackTree> p_, q_;
  std::map<uint64_t, Expected> expected_;

  std::mutex mu_;  // guards report_ notes/mismatches during the phase
  std::vector<Done> done_;
  std::vector<uint64_t> op_wall_ns_;
  PhaseTime time_;
  double phase_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  kcpq::obs::MetricsSnapshot delta_;
  kcpq::IoEventLoopStats uring_;
  kcpq::MirroredStats mirror_;
};

void Runner::SetUp() {
  const size_t n =
      shape_.stack == Stack::kMirror ? sizes_.mirror_points : sizes_.points;
  const std::vector<Point> points_p =
      kcpq::GenerateUniform(n, kcpq::UnitWorkspace(), kUniformSeed);
  const std::vector<Point> points_q =
      kcpq::GenerateSequoiaLike(n, kcpq::UnitWorkspace(), kSequoiaSeed);
  items_p_ = ToItems(points_p);
  items_q_ = ToItems(points_q);
  // File-backed trees live beside the binary, inside the build directory.
  const std::string base =
      (std::filesystem::canonical("/proc/self/exe").parent_path() /
       ("cpqbench-" + std::to_string(::getpid())))
          .string();
  std::vector<double> setup_s, rtree_s;
  for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
    p_.reset();
    q_.reset();
    TrimHeap();
    double rp = 0.0, rq = 0.0;
    const uint64_t start = NowNs();
    p_ = SetUpTree(shape_, points_p, base + "-p.db", kDeviceSeed, &rp);
    q_ = SetUpTree(shape_, points_q, base + "-q.db", kDeviceSeed + 1, &rq);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    rtree_s.push_back(rp + rq);
  }
  report_.Set("setup_s", Median(setup_s), setup_s.size());
  report_.Set("rtree.build_s", Median(rtree_s), rtree_s.size());
  if (p_->file != nullptr) {
    report_.Note(std::string("io backend: ") +
                 kcpq::IoBackendName(p_->file->ActiveIoBackend()) +
                 (p_->file->IoBackendFallbackReason().empty()
                      ? ""
                      : " (" + p_->file->IoBackendFallbackReason() + ")"));
  }
}

/// Oracle answers for the sample, then one execution of the sample to pin
/// its per-query counts; the measured phase must reproduce both.
void Runner::PrepareChecks() {
  const std::vector<uint64_t> sample =
      SampleIndices(stream_, fixed_, sizes_.oracle_samples,
                    Mix(args_.seed, shape_.query_salt + 100), shape_.rect_only);
  std::vector<BatchQuery> batch;
  for (uint64_t i : sample) {
    const QuerySpec spec = stream_.At(i);
    expected_[i].distances = OracleDistances(spec, items_p_, items_q_);
    batch.push_back(ToBatchQuery(spec));
  }
  BatchOptions options = OptionsFor(shape_);
  options.threads = kClients;
  const std::vector<BatchQueryResult> results =
      kcpq::BatchKClosestPairs(*p_->tree, *q_->tree, batch, options);
  for (size_t j = 0; j < sample.size(); ++j) {
    Expected& e = expected_[sample[j]];
    const BatchQueryResult& r = results[j];
    if (!Ok(r) || !SameDistances(r.pairs, e.distances)) {
      report_.Mismatch("oracle, check run, query " +
                       std::to_string(sample[j]) + " (" +
                       QueryKindName(stream_.At(sample[j]).kind) + ")");
    }
    e.disk_accesses = r.stats.disk_accesses();
    e.node_pairs = r.stats.node_pairs_processed;
  }
  report_.Note("oracle sample: " + std::to_string(sample.size()) +
               " queries of the first " + std::to_string(fixed_));
}

void Runner::CheckQuery(uint64_t index, const BatchQueryResult& r) {
  const auto it = expected_.find(index);
  if (it == expected_.end() || !Ok(r)) return;
  const Expected& e = it->second;
  std::string what;
  if (!SameDistances(r.pairs, e.distances)) what = "oracle";
  if (r.stats.disk_accesses() != e.disk_accesses ||
      r.stats.node_pairs_processed != e.node_pairs) {
    what += what.empty() ? "repeat counts" : " and repeat counts";
  }
  if (what.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  report_.Mismatch(what + ", query " + std::to_string(index));
}

/// Closed loop: kClients threads, each running one-query batches back to
/// back until the deadline has passed and the fixed prefix is done.
void Runner::MeasureClients() {
  const BatchOptions options = OptionsFor(shape_);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args_.seconds * 1e9);
  const Slices slices(args_.trace, start);
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Done>> per_client(kClients);
  for (std::vector<Done>& v : per_client) v.reserve(1 << 14);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> walls(kClients);
  auto client = [&](size_t c) {
    while (true) {
      const uint64_t i = next.fetch_add(1);
      const uint64_t now = NowNs();
      if (i >= fixed_ && now >= deadline) break;
      const QuerySpec spec = stream_.At(i);
      const std::vector<BatchQuery> batch{ToBatchQuery(spec)};
      const bool traced = slices.TracedAt(now);
      SetBackgroundRecording(traced);
      BeginOp(i + 1, traced);
      const uint64_t t0 = NowNs();
      std::vector<BatchQueryResult> r;
      {
        ScopedSpan span(kExecBatch);
        r = kcpq::BatchKClosestPairs(*p_->tree, *q_->tree, batch, options);
      }
      const uint64_t wall = NowNs() - t0;
      EndOp();
      CheckQuery(i, r[0]);
      Done d;
      d.index = i;
      d.kind = spec.kind;
      d.record = QueryRecord{static_cast<double>(wall) * 1e-9, traced,
                             Ok(r[0]), traced ? -1 : slices.Index(now)};
      d.work = WorkOf(r[0].stats);
      d.peak_memory_bytes = r[0].peak_memory_bytes;
      per_client[c].push_back(d);
      if (traced) walls[c].emplace_back(i + 1, wall);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  SetBackgroundRecording(false);
  const uint64_t end = NowNs();
  phase_s_ = static_cast<double>(end - start) * 1e-9;
  time_ = SlicedTime(slices, end);
  uint64_t max_op = 0;
  for (size_t c = 0; c < kClients; ++c) {
    done_.insert(done_.end(), per_client[c].begin(), per_client[c].end());
    for (const auto& [op, wall] : walls[c]) max_op = std::max(max_op, op);
  }
  op_wall_ns_.assign(max_op + 1, 0);
  for (const auto& w : walls) {
    for (const auto& [op, wall] : w) op_wall_ns_[op] = wall;
  }
}

/// file-b0: a fixed number of batches of `sizes_.batch` queries on the
/// resumable scheduler, back to back. The count scales with --seconds but
/// not with the machine's speed: the scheduler keeps every finished
/// batch's task states alive, so resident memory grows with the queries
/// run, and a fixed count keeps peak_rss_mb a property of the program. In
/// a traced run every second batch is traced.
void Runner::MeasureBatches() {
  const BatchOptions options = OptionsFor(shape_);
  const uint64_t start = NowNs();
  const uint64_t batches = std::max<uint64_t>(
      {(fixed_ + sizes_.batch - 1) / sizes_.batch, args_.trace ? 2u : 1u,
       static_cast<uint64_t>(
           std::llround(args_.seconds * sizes_.batches_per_second))});
  time_.p99_per_window = true;
  std::vector<std::pair<uint64_t, uint64_t>> walls;
  for (uint64_t b = 0; b < batches; ++b) {
    const bool traced = args_.trace && b % 2 == 1;
    std::vector<BatchQuery> batch;
    std::vector<QuerySpec> specs;
    for (uint64_t j = 0; j < sizes_.batch; ++j) {
      specs.push_back(stream_.At(b * sizes_.batch + j));
      batch.push_back(ToBatchQuery(specs.back()));
    }
    BeginOp(b + 1, traced);
    const uint64_t t0 = NowNs();
    std::vector<BatchQueryResult> results;
    {
      ScopedSpan span(kExecBatch);
      results = kcpq::BatchKClosestPairs(*p_->tree, *q_->tree, batch, options);
    }
    const uint64_t wall = NowNs() - t0;
    EndOp();
    const double wall_s = static_cast<double>(wall) * 1e-9;
    (traced ? time_.traced_s : time_.untraced_s) += wall_s;
    time_.windows.push_back(traced ? 0.0 : wall_s);
    if (traced) walls.emplace_back(b + 1, wall);
    for (uint64_t j = 0; j < results.size(); ++j) {
      const uint64_t index = b * sizes_.batch + j;
      CheckQuery(index, results[j]);
      Done d;
      d.index = index;
      d.kind = specs[j].kind;
      d.record = QueryRecord{results[j].seconds, traced, Ok(results[j]),
                             traced ? -1 : static_cast<int64_t>(b)};
      d.work = WorkOf(results[j].stats);
      d.peak_memory_bytes = results[j].peak_memory_bytes;
      done_.push_back(d);
    }
    // Freed query state goes back to the OS between batches, so RSS
    // follows each batch rather than the allocator's history.
    results.clear();
    TrimHeap();
  }
  phase_s_ = static_cast<double>(NowNs() - start) * 1e-9;
  uint64_t max_op = 0;
  for (const auto& [op, wall] : walls) max_op = std::max(max_op, op);
  op_wall_ns_.assign(max_op + 1, 0);
  for (const auto& [op, wall] : walls) op_wall_ns_[op] = wall;
}

kcpq::IoEventLoopStats UringTotals(const StackTree& p, const StackTree& q) {
  kcpq::IoEventLoopStats s;
  for (const StackTree* t : {&p, &q}) {
    if (t->file == nullptr) continue;
    const kcpq::IoEventLoopStats u = t->file->UringStats();
    s.batches_submitted += u.batches_submitted;
    s.reads_submitted += u.reads_submitted;
    s.cqe_wakes += u.cqe_wakes;
    s.cqes_reaped += u.cqes_reaped;
    s.sq_full_stalls += u.sq_full_stalls;
  }
  return s;
}

kcpq::MirroredStats MirrorTotals(const StackTree& p, const StackTree& q) {
  kcpq::MirroredStats s;
  for (const StackTree* t : {&p, &q}) {
    if (t->mirror == nullptr) continue;
    t->mirror->DrainHedges();
    const kcpq::MirroredStats m = t->mirror->mirrored_stats();
    s.logical_reads += m.logical_reads;
    s.failovers += m.failovers;
    s.hedges_issued += m.hedges_issued;
    s.hedge_wins += m.hedge_wins;
  }
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Runner::Summarize() {
  Report& r = report_;
  std::vector<QueryRecord> records;
  std::vector<double> peak_kb, park_us;
  uint64_t failed = 0, hs_queries = 0;
  double parked_s = 0.0, query_s = 0.0;
  // Work counts over the fixed prefix, so one seed gives exact repeats.
  uint64_t prefix = 0, engine_prefix = 0, disk = 0, node_accesses = 0;
  uint64_t node_pairs = 0, distances = 0, skipped = 0, generated = 0,
           pruned = 0;
  for (const Done& d : done_) {
    records.push_back(d.record);
    if (!d.record.ok) ++failed;
    if (d.kind == QueryKind::kHs) ++hs_queries;
    peak_kb.push_back(static_cast<double>(d.peak_memory_bytes) / 1024.0);
    parked_s += static_cast<double>(d.work.parked_ns) * 1e-9;
    query_s += d.record.seconds;
    if (d.work.parks > 0) {
      park_us.push_back(static_cast<double>(d.work.parked_ns) * 1e-3 /
                        static_cast<double>(d.work.parks));
    }
    if (d.index >= fixed_) continue;
    ++prefix;
    disk += d.work.disk_accesses;
    node_accesses += d.work.node_accesses;
    if (d.kind == QueryKind::kHs) continue;  // HS maps items into node pairs
    ++engine_prefix;
    node_pairs += d.work.node_pairs;
    distances += d.work.distances;
    skipped += d.work.skipped;
    generated += d.work.generated;
    pruned += d.work.pruned;
  }
  // Per-kind breakdown, for reading where a workload's time goes.
  struct KindSum {
    uint64_t n = 0;
    double seconds = 0.0, disk = 0.0, peak_kb = 0.0;
  };
  std::map<std::pair<int, size_t>, KindSum> kinds;
  for (const Done& d : done_) {
    KindSum& k = kinds[{static_cast<int>(d.kind), stream_.At(d.index).k}];
    ++k.n;
    k.seconds += d.record.seconds;
    k.disk += static_cast<double>(d.work.disk_accesses);
    k.peak_kb = std::max(k.peak_kb, d.peak_memory_bytes / 1024.0);
  }
  for (const auto& [key, k] : kinds) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "kind %-12s k=%-5zu n=%-6llu mean %.3f ms, %.1f disk "
                  "accesses, peak %.0f KiB",
                  QueryKindName(static_cast<QueryKind>(key.first)), key.second,
                  static_cast<unsigned long long>(k.n), k.seconds * 1e3 / k.n,
                  k.disk / k.n, k.peak_kb);
    r.Note(line);
  }
  const double n = static_cast<double>(done_.size());
  r.attempted = done_.size();
  r.failed = failed;
  ReportQueryTiming(records, time_, &r);
  r.Set("peak_rss_mb", peak_rss_mb_, 1);
  r.Set("disk_accesses_per_query", Ratio(disk, prefix), prefix);
  r.Set("rtree.node_accesses_per_query", Ratio(node_accesses, prefix), prefix);
  r.Set("cpq.node_pairs_per_query", Ratio(node_pairs, engine_prefix),
        engine_prefix);
  r.Set("cpq.distances_per_query", Ratio(distances, engine_prefix),
        engine_prefix);
  r.Set("cpq.sweep_skip_ratio", Ratio(skipped, skipped + distances),
        engine_prefix);
  r.Set("cpq.prune_ratio", Ratio(pruned, generated), engine_prefix);
  r.Set("common.query_peak_kb_p99", Percentile(peak_kb, 0.99), peak_kb.size());

  const kcpq::obs::MetricsSnapshot& m = delta_;
  r.Set("exec.parks_per_query",
        Ratio(m.CounterValue("kcpq_scheduler_parks_total"), n), done_.size());
  r.Set("exec.steps_per_query",
        Ratio(m.CounterValue("kcpq_scheduler_steps_total"), n), done_.size());
  r.Set("exec.parked_share", Ratio(parked_s, query_s), done_.size());
  r.Set("exec.inflight_peak", m.GaugeValue("kcpq_scheduler_inflight_peak"), 1);
  r.Set("hs.items_popped_per_query",
        Ratio(m.CounterValue("kcpq_hs_items_popped_total"), hs_queries),
        hs_queries);
  r.Set("hs.spill_reads",
        Ratio(m.CounterValue("kcpq_hs_queue_spill_reads_total"), hs_queries),
        hs_queries);
  const double hits = m.CounterValue("kcpq_buffer_hits_total");
  const double misses = m.CounterValue("kcpq_buffer_misses_total");
  r.Set("buffer.hit_ratio", Ratio(hits, hits + misses), done_.size());
  r.Set("buffer.evictions_per_query",
        Ratio(m.CounterValue("kcpq_buffer_evictions_total"), n), done_.size());
  r.Set("storage.reads_per_query",
        Ratio(m.CounterValue("kcpq_storage_reads_total"), n), done_.size());
  if (shape_.whole_buffer && misses > 0) {
    r.Mismatch("buffer missed " + std::to_string(misses) +
               " times on a workload whose trees fit in it");
  }
  if (p_->file != nullptr) {
    if (const auto* h = m.FindHistogram("kcpq_uring_sqe_batch_size")) {
      r.Set("storage.uring_reads_per_enter", Ratio(h->sum, h->count),
            h->count);
    }
    r.Set("storage.uring_cqes_per_wake",
          Ratio(uring_.cqes_reaped, uring_.cqe_wakes), uring_.cqe_wakes);
    r.Set("storage.uring_sq_full_stalls", Ratio(uring_.sq_full_stalls, n),
          done_.size());
    // The uring path takes no decorator, and the program samples
    // kcpq_io_read_wait_seconds only on traced synchronous reads; when it
    // has no samples, a read's wait is seen as the query's park time.
    const auto* h = m.FindHistogram("kcpq_io_read_wait_seconds");
    if (h != nullptr && h->count > 0) {
      r.Note("storage.read_*: kcpq_io_read_wait_seconds (mean only)");
      r.Set("storage.read_p50_us", Ratio(h->sum, h->count) * 1e6, h->count);
    } else {
      r.Set("storage.read_p50_us", Percentile(park_us, 0.50), park_us.size());
      r.Set("storage.read_p99_us", Percentile(park_us, 0.99), park_us.size());
      r.Set("storage.read_busy_share", Ratio(parked_s, query_s),
            done_.size());
    }
  }
  if (p_->mirror != nullptr) {
    r.Set("storage.hedges_per_read",
          Ratio(mirror_.hedges_issued, mirror_.logical_reads),
          mirror_.logical_reads);
    r.Set("storage.hedge_win_ratio",
          Ratio(mirror_.hedge_wins, mirror_.hedges_issued),
          mirror_.hedges_issued);
    r.Set("storage.failovers", Ratio(mirror_.failovers, n), done_.size());
  }
  r.Set("failed_frac", Ratio(r.failed + r.mismatches, n), done_.size());
}

Report Runner::Run() {
  const uint64_t t0 = NowNs();
  SetUp();
  const uint64_t t1 = NowNs();
  PrepareChecks();
  report_.Note("set-up " + std::to_string((t1 - t0) * 1e-9) + " s, checks " +
               std::to_string((NowNs() - t1) * 1e-9) + " s");
  TrimHeap();
  ClearSpans();
  const kcpq::obs::MetricsSnapshot before =
      kcpq::obs::MetricsRegistry::Global().Snapshot();
  const kcpq::IoEventLoopStats uring_before = UringTotals(*p_, *q_);
  const kcpq::MirroredStats mirror_before = MirrorTotals(*p_, *q_);
  {
    const PeakRss rss;
    if (shape_.resumable) {
      MeasureBatches();
    } else {
      MeasureClients();
    }
    peak_rss_mb_ = rss.Mb();
    if (!rss.reset()) report_.Note("peak_rss_mb includes set-up");
  }
  const kcpq::MirroredStats mirror_after = MirrorTotals(*p_, *q_);
  delta_ = kcpq::obs::MetricsSnapshot::Delta(
      before, kcpq::obs::MetricsRegistry::Global().Snapshot());
  const kcpq::IoEventLoopStats uring_after = UringTotals(*p_, *q_);
  uring_.cqes_reaped = uring_after.cqes_reaped - uring_before.cqes_reaped;
  uring_.cqe_wakes = uring_after.cqe_wakes - uring_before.cqe_wakes;
  uring_.sq_full_stalls =
      uring_after.sq_full_stalls - uring_before.sq_full_stalls;
  mirror_.logical_reads =
      mirror_after.logical_reads - mirror_before.logical_reads;
  mirror_.failovers = mirror_after.failovers - mirror_before.failovers;
  mirror_.hedges_issued =
      mirror_after.hedges_issued - mirror_before.hedges_issued;
  mirror_.hedge_wins = mirror_after.hedge_wins - mirror_before.hedge_wins;
  report_.Note("measured " + std::to_string(phase_s_) + " s, " +
               std::to_string(done_.size()) + " queries");
  Summarize();
  if (args_.trace) {
    uint64_t traced_queries = 0;
    for (const Done& d : done_) traced_queries += d.record.traced ? 1 : 0;
    ReportSpans(CollectSpans(), op_wall_ns_, traced_queries, true, &report_);
  }
  return report_;
}

}  // namespace

Report RunMemMix(const Args& args) { return Runner(kMemMix, args).Run(); }
Report RunFileB0(const Args& args) { return Runner(kFileB0, args).Run(); }
Report RunMirrorTail(const Args& args) {
  return Runner(kMirrorTail, args).Run();
}

}  // namespace cpqbench
