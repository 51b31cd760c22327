// paper-lru: the paper's own experiment with writes beside reads. One
// thread calls the engines directly over two memory-backed trees behind
// small LRU buffers; each round runs the five algorithms' query grid plus
// self, semi and HS, then N R* inserts and N erases into P. Single-threaded,
// so every count (disk accesses, node pairs, writebacks) repeats exactly
// for a seed.

#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>

#include "cpq/cpq.h"
#include "datagen/datagen.h"
#include "hs/hs.h"
#include "obs/metrics_registry.h"
#include "oracle.h"
#include "rtree/rtree.h"
#include "spans.h"
#include "storage/memory_storage.h"
#include "timed_storage.h"
#include "workload.h"

namespace cpqbench {
namespace {

using kcpq::CpqAlgorithm;
using kcpq::Point;
using kcpq::RStarTree;

constexpr double kOverlap = 0.25;

/// HS queue threshold DT (squared distance): items farther than this spill
/// to the queue's overflow pages. Squared pair distances shrink as 1/n^2
/// with n points per set, so DT does too; this one sits below the 100th
/// closest pair's key, so a share of the queue spills and is read back.
double HsSpillThreshold(size_t n) {
  return 40.0 / (static_cast<double>(n) * static_cast<double>(n));
}

struct LruQuery {
  enum Kind { kClosest, kSelf, kSemi, kHs } kind = kClosest;
  CpqAlgorithm algorithm = CpqAlgorithm::kHeap;
  size_t k = 1;
};

std::vector<LruQuery> RoundQueries() {
  std::vector<LruQuery> qs;
  for (CpqAlgorithm a : {CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
                         CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    for (size_t k : {1, 100, 10000}) qs.push_back({LruQuery::kClosest, a, k});
  }
  qs.push_back({LruQuery::kSelf, CpqAlgorithm::kHeap, 100});
  qs.push_back({LruQuery::kSemi, CpqAlgorithm::kHeap, 0});
  qs.push_back({LruQuery::kHs, CpqAlgorithm::kHeap, 100});
  return qs;
}

struct LruTree {
  std::unique_ptr<kcpq::MemoryStorageManager> media;
  std::unique_ptr<TimedStorageManager> timed;
  std::unique_ptr<kcpq::BufferManager> buffer;
  std::unique_ptr<RStarTree> tree;
};

std::unique_ptr<LruTree> SetUpTree(const std::vector<Point>& points,
                                   size_t buffer_pages, double* rtree_s) {
  auto t = std::make_unique<LruTree>();
  t->media = std::make_unique<kcpq::MemoryStorageManager>();
  t->timed = std::make_unique<TimedStorageManager>(t->media.get(), false);
  kcpq::PageId meta = kcpq::kInvalidPageId;
  *rtree_s = BuildTree(t->timed.get(), points, &meta);
  t->buffer = std::make_unique<kcpq::BufferManager>(t->timed.get(),
                                                    buffer_pages);
  t->tree = Take(RStarTree::Open(t->buffer.get(), meta), "open tree");
  return t;
}

/// The counts of one query that must repeat exactly.
struct Counts {
  uint64_t disk_accesses = 0;
  uint64_t node_pairs = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct QueryOutput {
  kcpq::Status status;
  std::vector<kcpq::PairResult> pairs;
  kcpq::CpqStats stats;  // HS: items popped as node pairs
  uint64_t spill_reads = 0;
};

QueryOutput RunQuery(const LruQuery& q, const RStarTree& p,
                     const RStarTree& qt, size_t n) {
  QueryOutput out;
  kcpq::Result<std::vector<kcpq::PairResult>> r =
      kcpq::Status::Internal("not run");
  kcpq::CpqOptions options;
  options.algorithm = q.algorithm;
  options.k = q.k;
  switch (q.kind) {
    case LruQuery::kClosest: {
      ScopedSpan span(kCpqClosest);
      r = kcpq::KClosestPairs(p, qt, options, &out.stats);
      break;
    }
    case LruQuery::kSelf: {
      ScopedSpan span(kCpqSelf);
      r = kcpq::SelfKClosestPairs(p, options, &out.stats);
      break;
    }
    case LruQuery::kSemi: {
      ScopedSpan span(kCpqSemi);
      r = kcpq::SemiClosestPairs(p, qt, &out.stats);
      break;
    }
    case LruQuery::kHs: {
      kcpq::HsOptions hs;
      hs.queue_distance_threshold = HsSpillThreshold(n);
      kcpq::HsStats stats;
      {
        ScopedSpan span(kHsJoin);
        r = kcpq::HsKClosestPairs(p, qt, q.k, hs, &stats);
      }
      out.stats.node_pairs_processed = stats.items_popped;
      out.stats.disk_accesses_p = stats.disk_accesses_p;
      out.stats.disk_accesses_q = stats.disk_accesses_q;
      out.stats.node_accesses = stats.node_accesses;
      out.spill_reads = stats.queue_spill_reads;
      break;
    }
  }
  out.status = r.status();
  if (r.ok()) out.pairs = std::move(r).value();
  return out;
}

/// Oracle answers for one round's point set.
struct RoundOracle {
  std::map<size_t, std::vector<double>> closest;  // by K
  std::vector<double> self;
  std::map<uint64_t, double> semi;
};

class Runner {
 public:
  explicit Runner(const Args& args)
      : args_(args),
        sizes_(Sizes::For(args)),
        queries_(RoundQueries()),
        fixed_rounds_((sizes_.fixed_queries + queries_.size() - 1) /
                      queries_.size()) {}

  Report Run();

 private:
  /// Points inserted into P in round `r`, with their ids.
  Items RoundInserts(uint64_t r) const {
    return ToItems(kcpq::GenerateUniform(sizes_.updates,
                                         kcpq::UnitWorkspace(),
                                         Mix(args_.seed, 1000 + r)),
                   sizes_.lru_points + r * sizes_.updates);
  }
  void SetUp();
  void PrepareOracles();
  void CheckQuery(uint64_t round, const LruQuery& q, const QueryOutput& out,
                  size_t p_size);
  void Measure();

  const Args& args_;
  const Sizes sizes_;
  const std::vector<LruQuery> queries_;
  const uint64_t fixed_rounds_;
  Report report_;

  Items items_p_, items_q_;
  std::unique_ptr<LruTree> p_, q_;
  std::map<uint64_t, RoundOracle> oracles_;
  std::vector<Counts> round0_counts_;
};

void Runner::SetUp() {
  const std::vector<Point> points_p = kcpq::GenerateUniform(
      sizes_.lru_points, kcpq::UnitWorkspace(), kUniformSeed);
  const std::vector<Point> points_q = kcpq::GenerateSequoiaLike(
      sizes_.lru_points,
      kcpq::ShiftedWorkspace(kcpq::UnitWorkspace(), kOverlap),
      kSequoiaSeed);
  items_p_ = ToItems(points_p);
  items_q_ = ToItems(points_q);
  std::vector<double> setup_s, rtree_s;
  for (int rep = 0; rep < sizes_.setup_reps; ++rep) {
    p_.reset();
    q_.reset();
    TrimHeap();
    double rp = 0.0, rq = 0.0;
    const uint64_t start = NowNs();
    p_ = SetUpTree(points_p, sizes_.lru_pages, &rp);
    q_ = SetUpTree(points_q, sizes_.lru_pages, &rq);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    rtree_s.push_back(rp + rq);
    // Repeatability: round 0 from cold buffers gives the same counts on
    // the first and the last set-up, and (after the buffers are emptied
    // again) in the measured phase.
    if (rep != 0 && rep + 1 != sizes_.setup_reps) continue;
    std::vector<Counts> counts;
    for (const LruQuery& q : queries_) {
      const QueryOutput out =
          RunQuery(q, *p_->tree, *q_->tree, sizes_.lru_points);
      counts.push_back({out.stats.disk_accesses(),
                        out.stats.node_pairs_processed});
    }
    if (rep == 0) {
      round0_counts_ = counts;
    } else if (counts != round0_counts_) {
      report_.Mismatch("round 0 counts differ between set-ups");
    }
    Check(p_->buffer->FlushAndClear(), "clear buffer");
    Check(q_->buffer->FlushAndClear(), "clear buffer");
  }
  report_.Set("setup_s", Median(setup_s), setup_s.size());
  report_.Set("rtree.build_s", Median(rtree_s), rtree_s.size());
}

/// Oracles for round 0 and one seeded later round of the fixed prefix, on
/// the point set P has when that round's queries run.
void Runner::PrepareOracles() {
  std::set<uint64_t> rounds = {0};
  if (fixed_rounds_ > 1) {
    rounds.insert(1 + Mix(args_.seed, 23) % (fixed_rounds_ - 1));
  }
  std::deque<std::pair<Point, uint64_t>> live(items_p_.begin(),
                                              items_p_.end());
  for (uint64_t r = 0; r <= *rounds.rbegin(); ++r) {
    if (rounds.count(r) > 0) {
      const Items p(live.begin(), live.end());
      RoundOracle& o = oracles_[r];
      for (size_t k : {1, 100, 10000}) {
        o.closest[k] = OracleDistances({QueryKind::kClosestHeap, k, {}}, p,
                                       items_q_);
      }
      o.self = OracleDistances({QueryKind::kSelf, 100, {}}, p, items_q_);
      o.semi = SemiOracleSample(p, items_q_, Mix(args_.seed, 24 + r),
                                4 * sizes_.oracle_samples);
    }
    for (const auto& it : RoundInserts(r)) live.push_back(it);
    for (size_t j = 0; j < sizes_.updates; ++j) live.pop_front();
  }
  report_.Note("oracle rounds: " + std::to_string(rounds.size()) +
               " of the first " + std::to_string(fixed_rounds_));
}

void Runner::CheckQuery(uint64_t round, const LruQuery& q,
                        const QueryOutput& out, size_t p_size) {
  const auto it = oracles_.find(round);
  if (it == oracles_.end()) return;
  const RoundOracle& o = it->second;
  bool ok = true;
  switch (q.kind) {
    case LruQuery::kClosest:
    case LruQuery::kHs:
      ok = SameDistances(out.pairs, o.closest.at(q.k));
      break;
    case LruQuery::kSelf:
      ok = SameDistances(out.pairs, o.self);
      break;
    case LruQuery::kSemi:
      ok = SemiMatches(out.pairs, p_size, o.semi);
      break;
  }
  if (!ok) {
    report_.Mismatch("oracle, round " + std::to_string(round) + ", " +
                     kcpq::CpqAlgorithmName(q.algorithm) + " k=" +
                     std::to_string(q.k) + " kind " + std::to_string(q.kind));
  }
}

uint64_t Counter(const kcpq::obs::MetricsSnapshot& before,
                 const kcpq::obs::MetricsSnapshot& after,
                 const char* name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Runner::Measure() {
  kcpq::obs::MetricsRegistry& registry = kcpq::obs::MetricsRegistry::Global();
  std::deque<std::pair<Point, uint64_t>> live(items_p_.begin(),
                                              items_p_.end());
  std::vector<QueryRecord> records;
  std::vector<std::vector<double>> type_ms(queries_.size());
  std::vector<double> update_us;
  std::vector<uint64_t> op_wall_ns(1, 0);
  PhaseTime time;
  double update_s = 0.0;
  uint64_t queries = 0, traced_queries = 0, updates = 0, failed = 0;
  uint64_t hs_queries = 0, spill_reads = 0;
  // Query-phase and update-phase counter sums.
  uint64_t q_hits = 0, q_misses = 0, q_evictions = 0, q_reads = 0;
  uint64_t u_writebacks = 0, u_writes = 0, hs_popped = 0;
  // Work counts over the fixed rounds.
  uint64_t prefix = 0, engine_prefix = 0, disk = 0, node_accesses = 0;
  uint64_t node_pairs = 0, distances = 0, skipped = 0, generated = 0,
           pruned = 0;

  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(args_.seconds * 1e9);
  const Slices slices(args_.trace, start);
  const PeakRss rss;
  for (uint64_t round = 0;; ++round) {
    const uint64_t round_start = NowNs();
    if (round >= fixed_rounds_ && round_start >= deadline) break;
    const bool traced = slices.TracedAt(round_start);
    const bool in_prefix = round < fixed_rounds_;

    const kcpq::obs::MetricsSnapshot s0 = registry.Snapshot();
    for (size_t j = 0; j < queries_.size(); ++j) {
      const LruQuery& q = queries_[j];
      const uint64_t op = op_wall_ns.size();
      BeginOp(op, traced);
      const uint64_t t0 = NowNs();
      const QueryOutput out =
          RunQuery(q, *p_->tree, *q_->tree, sizes_.lru_points);
      const uint64_t wall = NowNs() - t0;
      EndOp();
      op_wall_ns.push_back(traced ? wall : 0);
      const bool ok = out.status.ok();
      if (!traced) type_ms[j].push_back(static_cast<double>(wall) * 1e-6);
      records.push_back({static_cast<double>(wall) * 1e-9, traced, ok,
                         traced ? -1 : static_cast<int64_t>(round)});
      ++queries;
      if (traced) ++traced_queries;
      if (!ok) ++failed;
      CheckQuery(round, q, out, live.size());
      if (round == 0) {
        const Counts c{out.stats.disk_accesses(),
                       out.stats.node_pairs_processed};
        if (!(c == round0_counts_[j])) {
          report_.Mismatch("round 0 counts differ from the set-up run, query " +
                           std::to_string(j));
        }
      }
      if (q.kind == LruQuery::kHs) {
        ++hs_queries;
        spill_reads += out.spill_reads;
        hs_popped += out.stats.node_pairs_processed;
      }
      if (!in_prefix) continue;
      ++prefix;
      disk += out.stats.disk_accesses();
      node_accesses += out.stats.node_accesses;
      if (q.kind == LruQuery::kHs) continue;
      ++engine_prefix;
      node_pairs += out.stats.node_pairs_processed;
      distances += out.stats.point_distance_computations;
      skipped += out.stats.leaf_pairs_skipped;
      generated += out.stats.candidate_pairs_generated;
      pruned += out.stats.candidate_pairs_pruned;
    }
    const kcpq::obs::MetricsSnapshot s1 = registry.Snapshot();
    q_hits += Counter(s0, s1, "kcpq_buffer_hits_total");
    q_misses += Counter(s0, s1, "kcpq_buffer_misses_total");
    q_evictions += Counter(s0, s1, "kcpq_buffer_evictions_total");
    q_reads += Counter(s0, s1, "kcpq_storage_reads_total");

    const uint64_t u0 = NowNs();
    const auto update = [&](bool insert, const std::pair<Point, uint64_t>& it) {
      const uint64_t op = op_wall_ns.size();
      BeginOp(op, traced);
      const uint64_t t0 = NowNs();
      kcpq::Status status;
      if (insert) {
        ScopedSpan span(kRtreeInsert);
        status = p_->tree->Insert(it.first, it.second);
      } else {
        ScopedSpan span(kRtreeErase);
        const kcpq::Result<bool> erased = p_->tree->Erase(it.first, it.second);
        status = !erased.ok() ? erased.status()
                 : erased.value()
                     ? kcpq::Status::OK()
                     : kcpq::Status::NotFound("erase found no entry");
      }
      const uint64_t wall = NowNs() - t0;
      EndOp();
      op_wall_ns.push_back(traced ? wall : 0);
      ++updates;
      if (!status.ok()) ++failed;
      if (!traced) update_us.push_back(static_cast<double>(wall) * 1e-3);
    };
    for (const auto& it : RoundInserts(round)) {
      update(true, it);
      live.push_back(it);
    }
    for (size_t j = 0; j < sizes_.updates; ++j) {
      update(false, live.front());
      live.pop_front();
    }
    const uint64_t round_end = NowNs();
    if (!traced) update_s += static_cast<double>(round_end - u0) * 1e-9;
    const double round_s =
        static_cast<double>(round_end - round_start) * 1e-9;
    (traced ? time.traced_s : time.untraced_s) += round_s;
    time.windows.push_back(traced ? 0.0 : round_s);
    const kcpq::obs::MetricsSnapshot s2 = registry.Snapshot();
    u_writebacks += Counter(s1, s2, "kcpq_buffer_writebacks_total");
    u_writes += Counter(s1, s2, "kcpq_storage_writes_total");
  }
  const double phase_s = static_cast<double>(NowNs() - start) * 1e-9;

  Report& r = report_;
  r.Set("peak_rss_mb", rss.Mb(), 1);
  if (!rss.reset()) r.Note("peak_rss_mb includes set-up");
  r.attempted = queries + updates;
  r.failed = failed;
  ReportQueryTiming(records, time, &r);
  const double nq = static_cast<double>(queries);
  const double nu = static_cast<double>(updates);
  r.Set("inserts_per_s", Ratio(update_us.size(), update_s), update_us.size());
  r.Set("insert_p99_us", Percentile(update_us, 0.99), update_us.size());
  r.Set("disk_accesses_per_query", Ratio(disk, prefix), prefix);
  r.Set("rtree.node_accesses_per_query", Ratio(node_accesses, prefix), prefix);
  r.Set("cpq.node_pairs_per_query", Ratio(node_pairs, engine_prefix),
        engine_prefix);
  r.Set("cpq.distances_per_query", Ratio(distances, engine_prefix),
        engine_prefix);
  r.Set("cpq.sweep_skip_ratio", Ratio(skipped, skipped + distances),
        engine_prefix);
  r.Set("cpq.prune_ratio", Ratio(pruned, generated), engine_prefix);
  r.Set("hs.items_popped_per_query", Ratio(hs_popped, hs_queries), hs_queries);
  r.Set("hs.spill_reads", Ratio(spill_reads, hs_queries), hs_queries);
  r.Set("buffer.hit_ratio", Ratio(q_hits, q_hits + q_misses), queries);
  r.Set("buffer.evictions_per_query", Ratio(q_evictions, nq), queries);
  r.Set("buffer.writebacks_per_insert", Ratio(u_writebacks, nu), updates);
  r.Set("storage.reads_per_query", Ratio(q_reads, nq), queries);
  r.Set("storage.writes_per_insert", Ratio(u_writes, nu), updates);
  r.Set("failed_frac", Ratio(r.failed + r.mismatches, r.attempted),
        r.attempted);
  // Per-query-type breakdown, for reading where a round's time goes.
  for (size_t j = 0; j < queries_.size(); ++j) {
    static constexpr const char* kKinds[] = {"closest", "self", "semi", "hs"};
    char line[160];
    std::snprintf(line, sizeof(line),
                  "kind %-7s %-4s k=%-5zu median %.3f ms, max %.3f ms",
                  kKinds[queries_[j].kind],
                  kcpq::CpqAlgorithmName(queries_[j].algorithm),
                  queries_[j].k, Median(type_ms[j]),
                  Percentile(type_ms[j], 1.0));
    r.Note(line);
  }
  r.Note("measured " + std::to_string(phase_s) + " s, " +
         std::to_string(queries) + " queries, " + std::to_string(updates) +
         " updates");
  if (args_.trace) {
    ReportSpans(CollectSpans(), op_wall_ns, traced_queries, false, &r);
  }
}

Report Runner::Run() {
  const uint64_t t0 = NowNs();
  SetUp();
  const uint64_t t1 = NowNs();
  PrepareOracles();
  report_.Note("set-up " + std::to_string((t1 - t0) * 1e-9) + " s, checks " +
               std::to_string((NowNs() - t1) * 1e-9) + " s");
  TrimHeap();
  ClearSpans();
  Measure();
  return report_;
}

}  // namespace

Report RunPaperLru(const Args& args) { return Runner(args).Run(); }

}  // namespace cpqbench
