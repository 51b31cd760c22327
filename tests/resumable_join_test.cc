// The ε-distance join runs on the K-CPQ state machine, so it can park on
// a miss like every other query. Over 50 seeds, each join is driven twice:
// inline (empty waker: DistanceRangeJoin) and by the completion-driven
// scheduler with 4 workers, over a latency-injecting store whose misses
// park. Both runs must equal the brute-force join and count the same work
// and the same per-query disk accesses, at B=0 (four joins in flight over
// shared trees) and behind a cold 6-page LRU (one join at a time, since a
// shared LRU makes per-query misses depend on interleaving).

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cpq/distance_join.h"
#include "cpq/resumable.h"
#include "exec/scheduler.h"
#include "gtest/gtest.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;

using Items = std::vector<std::pair<Point, uint64_t>>;

constexpr size_t kPageSize = 512;

/// MemoryStorage -> LatencyStorage -> buffer of `pages` -> R*-tree.
class LatencyTree {
 public:
  explicit LatencyTree(size_t pages)
      : memory_(kPageSize),
        latency_(&memory_, std::chrono::microseconds(5)),
        buffer_(&latency_, pages) {
    auto created = RStarTree::Create(&buffer_);
    KCPQ_CHECK_OK(created.status());
    tree_ = std::move(created).value();
  }

  Status Build(const Items& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  RStarTree& tree() { return *tree_; }
  BufferManager& buffer() { return buffer_; }

 private:
  MemoryStorageManager memory_;
  LatencyStorageManager latency_;
  BufferManager buffer_;
  std::unique_ptr<RStarTree> tree_;
};

struct JoinRun {
  Status status;
  std::vector<PairResult> pairs;
  CpqStats stats;
};

/// The seed's four joins: cross and self, sweep and nested kernels.
std::vector<DistanceJoinOptions> JoinVariants(int seed) {
  std::vector<DistanceJoinOptions> variants;
  for (const bool self : {false, true}) {
    for (const LeafKernel kernel :
         {LeafKernel::kPlaneSweep, LeafKernel::kNestedLoop}) {
      DistanceJoinOptions options;
      options.self_join = self;
      options.leaf_kernel = kernel;
      options.metric = seed % 5 == 4 ? Metric::kL1 : Metric::kL2;
      options.height_strategy = seed % 2 == 1 ? HeightStrategy::kFixAtLeaves
                                              : HeightStrategy::kFixAtRoot;
      variants.push_back(options);
    }
  }
  return variants;
}

/// Runs `variants` (as `indices` select) through the scheduler at once.
std::vector<JoinRun> RunScheduled(LatencyTree* p, LatencyTree* q,
                                  double epsilon,
                                  const std::vector<DistanceJoinOptions>& all,
                                  const std::vector<size_t>& indices) {
  std::vector<JoinRun> runs(indices.size());
  ResumableScheduler::Options options;
  options.workers = 4;
  options.max_inflight = indices.size();
  ResumableScheduler::Run(
      indices.size(),
      [&](size_t i, Waker waker) -> std::unique_ptr<ResumableTask> {
        const DistanceJoinOptions& o = all[indices[i]];
        const RStarTree& tree_q = o.self_join ? p->tree() : q->tree();
        return NewDistanceJoinTask(p->tree(), tree_q, epsilon, o,
                                   &runs[i].stats, std::move(waker));
      },
      [&](size_t i, ResumableTask* task) {
        auto* join = static_cast<ResumableCpqQuery*>(task);
        runs[i].status = join->status();
        runs[i].pairs = join->TakeResults();
      },
      options);
  p->buffer().SettleStaged();
  q->buffer().SettleStaged();
  return runs;
}

JoinRun RunInline(LatencyTree* p, LatencyTree* q, double epsilon,
                  const DistanceJoinOptions& options) {
  JoinRun run;
  const RStarTree& tree_q = options.self_join ? p->tree() : q->tree();
  Result<std::vector<PairResult>> r =
      DistanceRangeJoin(p->tree(), tree_q, epsilon, options, &run.stats);
  run.status = r.status();
  if (r.ok()) run.pairs = std::move(r).value();
  return run;
}

/// The oracle computes point distances, the engine rect distances, so
/// ties may order differently: compare the pair sets and the distances.
void ExpectSameJoin(const std::vector<PairResult>& got,
                    const std::vector<PairResult>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  std::set<std::pair<uint64_t, uint64_t>> got_pairs, want_pairs;
  for (size_t i = 0; i < got.size(); ++i) {
    got_pairs.emplace(got[i].p_id, got[i].q_id);
    want_pairs.emplace(want[i].p_id, want[i].q_id);
    ASSERT_NEAR(got[i].distance, want[i].distance, 1e-12)
        << label << " rank " << i;
  }
  EXPECT_EQ(got_pairs, want_pairs) << label;
}

/// Two runs of the engine: the same pairs in the same order, bit for bit.
void ExpectIdenticalPairs(const std::vector<PairResult>& got,
                          const std::vector<PairResult>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].p_id, want[i].p_id) << label << " rank " << i;
    ASSERT_EQ(got[i].q_id, want[i].q_id) << label << " rank " << i;
    ASSERT_EQ(got[i].distance, want[i].distance) << label << " rank " << i;
  }
}

/// Everything but the park counters, which are the drive mode's own.
void ExpectSameWork(const CpqStats& a, const CpqStats& b,
                    const std::string& label) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed) << label;
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated) << label;
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned) << label;
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations)
      << label;
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped) << label;
  EXPECT_EQ(a.node_accesses, b.node_accesses) << label;
  EXPECT_EQ(a.disk_accesses_p, b.disk_accesses_p) << label;
  EXPECT_EQ(a.disk_accesses_q, b.disk_accesses_q) << label;
  EXPECT_EQ(a.quality.stop_cause, b.quality.stop_cause) << label;
  EXPECT_EQ(a.quality.pairs_found, b.quality.pairs_found) << label;
}

TEST(ResumableDistanceJoin, FiftySeedsScheduledMatchesInline) {
  for (int seed = 0; seed < 50; ++seed) {
    const size_t np = 120 + static_cast<size_t>(seed % 5) * 30;
    const size_t nq = 120 + static_cast<size_t>((seed / 5) % 5) * 30;
    const double epsilon = 0.03 + 0.01 * (seed % 4);
    const Items p_items = MakeUniformItems(np, 3000 + seed);
    const Items q_items = seed % 2 == 0 ? MakeUniformItems(nq, 4000 + seed)
                                        : MakeClusteredItems(nq, 4000 + seed);
    const std::vector<DistanceJoinOptions> variants = JoinVariants(seed);

    for (const size_t pages : {size_t{0}, size_t{6}}) {
      LatencyTree p(pages), q(pages);
      KCPQ_ASSERT_OK(p.Build(p_items));
      KCPQ_ASSERT_OK(q.Build(q_items));
      std::vector<JoinRun> scheduled;
      if (pages == 0) {
        scheduled = RunScheduled(&p, &q, epsilon, variants, {0, 1, 2, 3});
      } else {
        for (size_t v = 0; v < variants.size(); ++v) {
          KCPQ_ASSERT_OK(p.buffer().FlushAndClear());
          KCPQ_ASSERT_OK(q.buffer().FlushAndClear());
          scheduled.push_back(
              RunScheduled(&p, &q, epsilon, variants, {v}).front());
        }
      }
      for (size_t v = 0; v < variants.size(); ++v) {
        const DistanceJoinOptions& options = variants[v];
        const std::string label = "seed " + std::to_string(seed) + " B=" +
                                  std::to_string(pages) + " variant " +
                                  std::to_string(v);
        if (pages > 0) {
          KCPQ_ASSERT_OK(p.buffer().FlushAndClear());
          KCPQ_ASSERT_OK(q.buffer().FlushAndClear());
        }
        const JoinRun inline_run = RunInline(&p, &q, epsilon, options);
        KCPQ_ASSERT_OK(inline_run.status);
        KCPQ_ASSERT_OK(scheduled[v].status);
        const std::vector<PairResult> want = BruteForceDistanceRangeJoin(
            p_items, options.self_join ? p_items : q_items, epsilon,
            options.self_join, options.metric);
        ExpectSameJoin(inline_run.pairs, want, label);
        ExpectIdenticalPairs(scheduled[v].pairs, inline_run.pairs, label);
        ExpectSameWork(scheduled[v].stats, inline_run.stats, label);
        EXPECT_EQ(inline_run.stats.io_parks, 0u) << label;
        EXPECT_GT(scheduled[v].stats.io_parks, 0u) << label;
      }
    }
  }
}

}  // namespace
}  // namespace kcpq
