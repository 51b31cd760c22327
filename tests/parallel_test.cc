// Tests for the parallel batch executor (exec/) and the plane-sweep leaf
// kernel: differential correctness against brute force across ~50 seeded
// workloads x all five algorithms x both kernels x 1/4 threads, stats
// accounting invariants, ThreadPool basics, and concurrent queries over a
// shared sharded buffer.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "buffer/replacement_policy.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
constexpr LeafKernel kBothKernels[] = {LeafKernel::kNestedLoop,
                                       LeafKernel::kPlaneSweep};

std::vector<double> Distances(const std::vector<PairResult>& pairs) {
  std::vector<double> d;
  d.reserve(pairs.size());
  for (const PairResult& pr : pairs) d.push_back(pr.distance);
  return d;
}

// Ties make the pair *set* non-unique, so differential checks compare the
// distance multiset (which is unique) rank by rank.
void ExpectSameDistances(const std::vector<PairResult>& got,
                         const std::vector<PairResult>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  const std::vector<double> g = Distances(got);
  const std::vector<double> w = Distances(want);
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_NEAR(g[i], w[i], 1e-9) << label << " rank " << i;
  }
}

void ExpectSameStats(const CpqStats& a, const CpqStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed) << label;
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated) << label;
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned) << label;
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations)
      << label;
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped) << label;
  EXPECT_EQ(a.max_heap_size, b.max_heap_size) << label;
}

// One seeded workload: sizes, data kinds, k, and metric all derive from the
// seed so the suite sweeps a grid of shapes.
struct Workload {
  size_t np, nq, k;
  Metric metric;
  bool clustered_q;
};

Workload MakeWorkload(int seed) {
  Workload w;
  w.np = 80 + static_cast<size_t>(seed % 5) * 50;
  w.nq = 80 + static_cast<size_t>((seed / 5) % 5) * 50;
  w.k = (seed % 3 == 0) ? 1 : (seed % 3 == 1) ? 7 : 64;
  constexpr Metric kMetrics[] = {Metric::kL2, Metric::kL2, Metric::kL2,
                                 Metric::kL1, Metric::kLinf};
  w.metric = kMetrics[seed % 5];
  w.clustered_q = (seed % 2) == 1;
  return w;
}

class ParallelDifferentialTest : public ::testing::TestWithParam<int> {};

// Every algorithm, both kernels, run as one batch at 1 and at 4 threads:
// all of them must return the brute-force distance multiset, and the
// 4-thread run must be bit-identical (pairs and stats) to the 1-thread run.
TEST_P(ParallelDifferentialTest, AllAlgorithmsBothKernelsMatchBrute) {
  const int seed = GetParam();
  const Workload w = MakeWorkload(seed);
  const auto p_items = MakeUniformItems(w.np, 9000 + seed * 2);
  const auto q_items = w.clustered_q
                           ? MakeClusteredItems(w.nq, 9001 + seed * 2)
                           : MakeUniformItems(w.nq, 9001 + seed * 2);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const std::vector<PairResult> want = BruteForceKClosestPairs(
      p_items, q_items, w.k, /*self_join=*/false, w.metric);

  std::vector<BatchQuery> batch;
  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    for (const LeafKernel kernel : kBothKernels) {
      BatchQuery query;
      query.options.algorithm = algorithm;
      query.options.k = w.k;
      query.options.metric = w.metric;
      query.options.leaf_kernel = kernel;
      batch.push_back(query);
    }
  }

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions parallel;
  parallel.threads = 4;
  BatchStats batch_stats;
  const auto serial_results =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, serial, &batch_stats);
  const auto parallel_results =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, parallel);
  ASSERT_EQ(serial_results.size(), batch.size());
  ASSERT_EQ(parallel_results.size(), batch.size());
  EXPECT_EQ(batch_stats.queries, batch.size());
  EXPECT_EQ(batch_stats.failed, 0u);

  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string label =
        std::string(CpqAlgorithmName(batch[i].options.algorithm)) + "/" +
        LeafKernelName(batch[i].options.leaf_kernel) + " seed " +
        std::to_string(seed);
    KCPQ_ASSERT_OK(serial_results[i].status);
    KCPQ_ASSERT_OK(parallel_results[i].status);
    ExpectSameDistances(serial_results[i].pairs, want, label);

    // Per-query parallelism: the 4-thread run is the same computation.
    ASSERT_EQ(parallel_results[i].pairs.size(), serial_results[i].pairs.size())
        << label;
    for (size_t r = 0; r < serial_results[i].pairs.size(); ++r) {
      EXPECT_EQ(parallel_results[i].pairs[r].p_id,
                serial_results[i].pairs[r].p_id)
          << label;
      EXPECT_EQ(parallel_results[i].pairs[r].q_id,
                serial_results[i].pairs[r].q_id)
          << label;
    }
    ExpectSameStats(parallel_results[i].stats, serial_results[i].stats, label);

    // Accounting invariants. Each processed node pair is the root pair or a
    // surviving candidate; kHeap may abandon pushed candidates when the
    // bound closes the heap (CP5), so it only bounds from above.
    const CpqStats& s = serial_results[i].stats;
    const uint64_t survivors =
        1 + s.candidate_pairs_generated - s.candidate_pairs_pruned;
    if (batch[i].options.algorithm == CpqAlgorithm::kHeap) {
      EXPECT_LE(s.node_pairs_processed, survivors) << label;
    } else {
      EXPECT_EQ(s.node_pairs_processed, survivors) << label;
    }
    if (batch[i].options.leaf_kernel == LeafKernel::kNestedLoop) {
      EXPECT_EQ(s.leaf_pairs_skipped, 0u) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelDifferentialTest,
                         ::testing::Range(0, 50));

// A batch mixing query kinds (cross, self, semi) must match the dedicated
// entry points at any thread count.
TEST(BatchTest, MixedKindsMatchDirectCalls) {
  const auto items = MakeClusteredItems(400, 9102);
  const auto q_items = MakeUniformItems(300, 9103);
  TreeFixture fx, fq;
  KCPQ_ASSERT_OK(fx.Build(items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  std::vector<BatchQuery> batch(3);
  batch[0].kind = BatchQueryKind::kClosestPairs;
  batch[0].options.k = 12;
  batch[1].kind = BatchQueryKind::kSelfClosestPairs;
  batch[1].options.k = 12;
  batch[2].kind = BatchQueryKind::kSemiClosestPairs;

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    BatchOptions options;
    options.threads = threads;
    const auto results =
        BatchKClosestPairs(fx.tree(), fq.tree(), batch, options);
    ASSERT_EQ(results.size(), 3u);
    for (const auto& r : results) KCPQ_ASSERT_OK(r.status);

    auto cross = KClosestPairs(fx.tree(), fq.tree(), batch[0].options);
    ASSERT_TRUE(cross.ok());
    ExpectSameDistances(results[0].pairs, cross.value(), "cross");
    auto self = SelfKClosestPairs(fx.tree(), batch[1].options);
    ASSERT_TRUE(self.ok());
    ExpectSameDistances(results[1].pairs, self.value(), "self");
    ExpectSameDistances(results[2].pairs,
                        BruteForceSemiClosestPairs(items, q_items), "semi");
  }
}

TEST(BatchTest, SelfJoinDifferential) {
  const auto items = MakeUniformItems(350, 9104);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  const auto want =
      BruteForceKClosestPairs(items, items, 20, /*self_join=*/true);
  std::vector<BatchQuery> batch;
  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    for (const LeafKernel kernel : kBothKernels) {
      BatchQuery query;
      query.kind = BatchQueryKind::kSelfClosestPairs;
      query.options.algorithm = algorithm;
      query.options.k = 20;
      query.options.leaf_kernel = kernel;
      batch.push_back(query);
    }
  }
  BatchOptions options;
  options.threads = 4;
  const auto results = BatchKClosestPairs(fx.tree(), fx.tree(), batch, options);
  for (size_t i = 0; i < results.size(); ++i) {
    KCPQ_ASSERT_OK(results[i].status);
    ExpectSameDistances(results[i].pairs, want,
                        std::string("self ") +
                            CpqAlgorithmName(batch[i].options.algorithm));
    for (const PairResult& pr : results[i].pairs) {
      ASSERT_LT(pr.p_id, pr.q_id);
    }
  }
}

// The sweep must skip work, not just match results.
TEST(LeafKernelTest, SweepSkipsPairsAndComputesFewerDistances) {
  const auto p_items = MakeUniformItems(2000, 9105);
  const auto q_items = MakeUniformItems(2000, 9106);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  CpqStats nested, sweep;
  options.leaf_kernel = LeafKernel::kNestedLoop;
  ASSERT_TRUE(KClosestPairs(fp.tree(), fq.tree(), options, &nested).ok());
  options.leaf_kernel = LeafKernel::kPlaneSweep;
  ASSERT_TRUE(KClosestPairs(fp.tree(), fq.tree(), options, &sweep).ok());
  EXPECT_GT(sweep.leaf_pairs_skipped, 0u);
  EXPECT_LT(sweep.point_distance_computations,
            nested.point_distance_computations);
  // Skipped + computed covers exactly the pairs the nested loop enumerates.
  EXPECT_EQ(sweep.point_distance_computations + sweep.leaf_pairs_skipped,
            nested.point_distance_computations);
}

TEST(LeafKernelTest, BruteForceKernelsAgree) {
  const auto p_items = MakeUniformItems(500, 9107);
  const auto q_items = MakeClusteredItems(500, 9108);
  for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
    const auto nested = BruteForceKClosestPairs(
        p_items, q_items, 25, /*self_join=*/false, metric,
        LeafKernel::kNestedLoop);
    const auto sweep = BruteForceKClosestPairs(
        p_items, q_items, 25, /*self_join=*/false, metric,
        LeafKernel::kPlaneSweep);
    ExpectSameDistances(sweep, nested, "brute kernels");
  }
}

TEST(LeafKernelTest, HsKernelsAgree) {
  const auto p_items = MakeUniformItems(600, 9109);
  const auto q_items = MakeUniformItems(600, 9110);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const auto want = BruteForceKClosestPairs(p_items, q_items, 30);
  for (const LeafKernel kernel : kBothKernels) {
    HsOptions options;
    options.leaf_kernel = kernel;
    auto result = HsKClosestPairs(fp.tree(), fq.tree(), 30, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameDistances(result.value(), want,
                        std::string("hs ") + LeafKernelName(kernel));
  }
}

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, WaitThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 100);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(count.load(), 200);
}

// Concurrent queries against shared *sharded* buffers: per-query disk
// accesses (each query's own read outcomes) must sum to the buffers' global
// miss counters, and results must match the unshared single-thread run.
TEST(ShardedBufferTest, ConcurrentQueriesAccountDiskAccesses) {
  const auto p_items = MakeUniformItems(3000, 9111);
  const auto q_items = MakeUniformItems(3000, 9112);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  BufferManager shared_p(&fp.storage(), 16, /*shards=*/8,
                         [] { return MakeLruPolicy(); });
  BufferManager shared_q(&fq.storage(), 16, /*shards=*/8,
                         [] { return MakeLruPolicy(); });
  auto tree_p = RStarTree::Open(&shared_p, fp.tree().meta_page());
  auto tree_q = RStarTree::Open(&shared_q, fq.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_TRUE(tree_q.ok());

  std::vector<BatchQuery> batch(16);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = 1 + i * 3;
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  }
  const BufferStats before_p = shared_p.stats();
  const BufferStats before_q = shared_q.stats();
  BatchOptions options;
  options.threads = 8;
  const auto results = BatchKClosestPairs(*tree_p.value(), *tree_q.value(),
                                          batch, options);
  uint64_t sum_p = 0;
  uint64_t sum_q = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    KCPQ_ASSERT_OK(results[i].status);
    sum_p += results[i].stats.disk_accesses_p;
    sum_q += results[i].stats.disk_accesses_q;

    CpqStats want_stats;
    auto want = KClosestPairs(fp.tree(), fq.tree(), batch[i].options,
                              &want_stats);
    ASSERT_TRUE(want.ok());
    ExpectSameDistances(results[i].pairs, want.value(),
                        "shared query " + std::to_string(i));
    ExpectSameStats(results[i].stats, want_stats,
                    "shared query " + std::to_string(i));
  }
  EXPECT_EQ(sum_p, shared_p.stats().misses - before_p.misses);
  EXPECT_EQ(sum_q, shared_q.stats().misses - before_q.misses);
}

TEST(ShardedBufferTest, ShardedMatchesClassicSingleThread) {
  const auto items = MakeUniformItems(1500, 9113);
  TreeFixture fx(/*buffer_pages=*/32);
  KCPQ_ASSERT_OK(fx.Build(items));
  BufferManager sharded(&fx.storage(), 32, /*shards=*/4,
                        [] { return MakeLruPolicy(); });
  auto tree = RStarTree::Open(&sharded, fx.tree().meta_page());
  ASSERT_TRUE(tree.ok());
  CpqOptions options;
  options.k = 5;
  options.self_join = true;
  auto a = SelfKClosestPairs(fx.tree(), options);
  auto b = SelfKClosestPairs(*tree.value(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameDistances(b.value(), a.value(), "sharded vs classic");
}

}  // namespace
}  // namespace kcpq
