// Tests for the native io_uring completion event loop (docs/io.md,
// "Native completion event loop"): the uring-vs-pool differential over
// file-backed trees (bit-identical results AND per-query disk accesses,
// 50 seeds x 5 algorithms x blocking/resumable), mid-flight cancellation
// and deadline expiry with CQEs outstanding, SQ-depth backpressure when
// the ring is smaller than the in-flight bound, and graceful degradation
// to the portable pool loop (never a silent downgrade). Reads the page
// cache serves at once skip the ring (BufferManager::TryRead probes first),
// so the tests that exercise the ring evict their files from the page
// cache before each run, and the no-wait tests check both sides: a warm
// file never parks, a cold one still goes through the ring.
//
// A no-wait read of an evicted page still starts the kernel's readahead,
// and on a fast device that I/O can land before the call returns: the read
// then succeeds and the small test file is warm again. So a single cold
// run may legitimately never reach the ring. Tests that need the ring
// count its reads over many cold runs (or repeat a cold run until it gets
// some), rather than over one.
//
// Every test hard-skips — visibly, with the probe's reason — when the
// running kernel refuses io_uring, so a CI lane without ring support
// reports SKIPPED rather than a hollow PASS.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "obs/kcpq_metrics.h"
#include "rtree/rtree.h"
#include "storage/file_storage.h"
#include "storage/retrying_storage.h"
#include "storage/uring_ring.h"
#include "tests/file_tree_fixture.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::FileTreeFixture;
using testing::MakeClusteredItems;
using testing::MakeUniformItems;

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};

/// Reads the two stores' rings were handed since their last SetIoBackend.
uint64_t RingReads(FileTreeFixture& fp, FileTreeFixture& fq) {
  return fp.storage().UringStats().reads_submitted +
         fq.storage().UringStats().reads_submitted;
}

/// Cold runs a test may repeat to see the ring used (see the file comment).
constexpr int kColdAttempts = 20;

void ExpectSameResults(const std::vector<BatchQueryResult>& got,
                       const std::vector<BatchQueryResult>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string q = label + " query " + std::to_string(i);
    ASSERT_TRUE(want[i].status.ok()) << q << want[i].status.ToString();
    ASSERT_TRUE(got[i].status.ok()) << q << got[i].status.ToString();
    ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size()) << q;
    for (size_t r = 0; r < got[i].pairs.size(); ++r) {
      ASSERT_NEAR(got[i].pairs[r].distance, want[i].pairs[r].distance, 1e-12)
          << q << " rank " << r;
    }
    // The disk-access metric is the paper's headline number: the native
    // completion path must not change what counts as a read.
    EXPECT_EQ(got[i].stats.disk_accesses_p, want[i].stats.disk_accesses_p)
        << q;
    EXPECT_EQ(got[i].stats.disk_accesses_q, want[i].stats.disk_accesses_q)
        << q;
    EXPECT_EQ(got[i].stats.node_accesses, want[i].stats.node_accesses) << q;
    EXPECT_EQ(got[i].stats.quality.stop_cause, want[i].stats.quality.stop_cause)
        << q;
    EXPECT_EQ(got[i].stats.quality.pairs_found,
              want[i].stats.quality.pairs_found)
        << q;
  }
}

/// All five algorithms x K in {1, 10}, plus self-join, HS, and semi riders
/// (the resumable_test mix, run here against real files).
std::vector<BatchQuery> MakeQueryMix(int seed) {
  std::vector<BatchQuery> queries;
  for (CpqAlgorithm algorithm : kAllAlgorithms) {
    for (size_t k : {size_t{1}, size_t{10}}) {
      BatchQuery q;
      q.options.algorithm = algorithm;
      q.options.k = k;
      q.options.metric = (seed % 4 == 1) ? Metric::kL1 : Metric::kL2;
      queries.push_back(q);
    }
  }
  BatchQuery self;
  self.kind = BatchQueryKind::kSelfClosestPairs;
  self.options.algorithm =
      kAllAlgorithms[static_cast<size_t>(seed) % std::size(kAllAlgorithms)];
  self.options.k = 5;
  queries.push_back(self);
  BatchQuery hs;
  hs.kind = BatchQueryKind::kHsClosestPairs;
  hs.options.k = 10;
  queries.push_back(hs);
  BatchQuery semi;
  semi.kind = BatchQueryKind::kSemiClosestPairs;
  queries.push_back(semi);
  return queries;
}

// 50 seeded workloads on file-backed, zero-buffer trees: for both the
// blocking and the resumable executor, switching --io-backend from the
// portable pool to the native ring must leave every query's pairs and
// disk-access counts bit-identical.
TEST(UringDifferential, FiftySeedsPoolVsUringMatchExactly) {
  KCPQ_SKIP_WITHOUT_URING();
  uint64_t resumable_ring_reads = 0;
  for (int seed = 0; seed < 50; ++seed) {
    const size_t np = 80 + static_cast<size_t>(seed % 5) * 40;
    const size_t nq = 80 + static_cast<size_t>((seed / 5) % 5) * 40;
    FileTreeFixture fp(0), fq(0);
    KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(np, 1000 + seed)));
    KCPQ_ASSERT_OK(
        fq.Build(seed % 2 == 0 ? MakeUniformItems(nq, 2000 + seed)
                               : MakeClusteredItems(nq, 2000 + seed)));
    const std::vector<BatchQuery> queries = MakeQueryMix(seed);

    for (const SchedulerMode mode :
         {SchedulerMode::kBlocking, SchedulerMode::kResumable}) {
      BatchOptions options;
      options.threads = 2;
      options.scheduler = mode;
      if (mode == SchedulerMode::kResumable) {
        options.max_inflight = queries.size();
      }
      const std::string label =
          "seed " + std::to_string(seed) +
          (mode == SchedulerMode::kResumable ? " resumable" : " blocking");

      KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kThreadPool));
      KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kThreadPool));
      fp.EvictPageCache();
      fq.EvictPageCache();
      const std::vector<BatchQueryResult> want =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

      KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
      KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
      ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
          << fp.storage().IoBackendFallbackReason();
      fp.EvictPageCache();
      fq.EvictPageCache();
      const std::vector<BatchQueryResult> got =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

      ExpectSameResults(got, want, label);
      const uint64_t ring_reads = RingReads(fp, fq);
      if (mode == SchedulerMode::kResumable) {
        resumable_ring_reads += ring_reads;
      } else {
        // The blocking executor reads synchronously, never through a ring.
        EXPECT_EQ(ring_reads, 0u) << label;
      }
    }
  }
  EXPECT_GT(resumable_ring_reads, 0u);
}

// An SQ ring much smaller than the in-flight bound: submissions must stall
// (counted, visible) rather than drop reads or deadlock, and the answers
// must be identical to the pool loop's. One direct 32-page ReadPagesAsync
// batch exceeds the ring's whole completion capacity, so its SubmitReads
// call is forced to wait for slots; the batch of 48 queries parks more
// reads than the ring holds whenever the cold file reaches it.
TEST(UringBackpressure, SqDepthSmallerThanMaxInflight) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(2000, 41)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(2000, 42)));

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 48; ++i) {
    BatchQuery q;
    q.options.algorithm = CpqAlgorithm::kHeap;
    q.options.k = 1 + static_cast<size_t>(i % 10);
    queries.push_back(q);
  }
  BatchOptions options;
  options.threads = 4;
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();

  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kThreadPool));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kThreadPool));
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

  FileStorageManager::UringOptions tiny;
  tiny.sq_depth = 4;  // 8 completion slots, far below 48 in-flight queries
  fp.storage().ConfigureUring(tiny);
  fq.storage().ConfigureUring(tiny);
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
      << fp.storage().IoBackendFallbackReason();
  fp.EvictPageCache();
  fq.EvictPageCache();
  const std::vector<BatchQueryResult> got =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  ExpectSameResults(got, want, "backpressure");

  // 32 pages in one submission, each checked against a synchronous read.
  const uint64_t pages = std::min<uint64_t>(fp.storage().PageCount(), 32);
  ASSERT_EQ(pages, 32u);
  std::vector<PageId> ids(pages);
  for (PageId id = 0; id < pages; ++id) ids[id] = id;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<AsyncPageRead> done;
  fp.storage().ReadPagesAsync(ids.data(), ids.size(),
                              [&](AsyncPageRead read) {
                                std::lock_guard<std::mutex> lock(mu);
                                done.push_back(std::move(read));
                                cv.notify_all();
                              });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.size() == ids.size(); });
  }
  for (const AsyncPageRead& read : done) {
    KCPQ_ASSERT_OK(read.status);
    Page want_page;
    KCPQ_ASSERT_OK(fp.storage().ReadPage(read.id, &want_page));
    ASSERT_EQ(read.page.size(), want_page.size());
    EXPECT_EQ(std::memcmp(read.page.data(), want_page.data(),
                          want_page.size()),
              0)
        << "page " << read.id;
  }
  const uint64_t stalls = fp.storage().UringStats().sq_full_stalls;
  EXPECT_GT(stalls, 0u) << "a 32-page batch into an 8-slot ring must stall "
                           "at least once";
  const IoEventLoopStats totals = fp.storage().UringStats();
  EXPECT_EQ(totals.reads_submitted,
            totals.fixed_buffer_reads + totals.unfixed_reads);
}

// Deadlines expiring and a batch-wide cancel firing while CQEs are still
// in flight: every query must settle (no hangs, no use-after-free in the
// reaper), with only OK / partial / cancelled outcomes, and the loop must
// stay usable for a follow-up run that completes exactly.
TEST(UringCancellation, MidFlightDeadlineAndCancelWithCqesOutstanding) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1500, 51)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(1500, 52)));
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
      << fp.storage().IoBackendFallbackReason();

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 32; ++i) {
    BatchQuery q;
    q.options.algorithm = CpqAlgorithm::kHeap;
    q.options.k = 10;
    if (i % 3 == 1) q.options.control.max_node_accesses = 4;  // early stop
    if (i % 3 == 2) {
      q.options.control.deadline = std::chrono::steady_clock::now();
    }
    queries.push_back(q);
  }
  // Cold runs until one hands the ring reads (see the file comment).
  uint64_t ring_reads = 0;
  for (int attempt = 0; attempt < kColdAttempts && ring_reads == 0;
       ++attempt) {
    CancellationSource cancel;
    BatchOptions options;
    options.threads = 4;
    options.scheduler = SchedulerMode::kResumable;
    options.max_inflight = queries.size();
    options.control.cancel = cancel.token();

    const uint64_t ring_reads_before = RingReads(fp, fq);
    fp.EvictPageCache();
    fq.EvictPageCache();
    std::thread canceller([&cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      cancel.Cancel();
    });
    const std::vector<BatchQueryResult> results =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
    canceller.join();
    ring_reads = RingReads(fp, fq) - ring_reads_before;

    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << "query " << i << ": " << results[i].status.ToString();
      EXPECT_TRUE(results[i].outcome == QueryOutcome::kOk ||
                  results[i].outcome == QueryOutcome::kPartial ||
                  results[i].outcome == QueryOutcome::kCancelled)
          << "query " << i;
    }
  }
  EXPECT_GT(ring_reads, 0u);

  // The ring survived the churn: a clean query still matches blocking.
  CpqOptions clean;
  clean.algorithm = CpqAlgorithm::kHeap;
  clean.k = 5;
  CpqStats stats;
  auto after = KClosestPairs(fp.tree(), fq.tree(), clean, &stats);
  KCPQ_ASSERT_OK(after.status());
  EXPECT_EQ(after.value().size(), 5u);
}

/// The closest-pair, HS and semi kinds over every algorithm (no self-join:
/// its two trees share one buffer, so its misses count on both sides).
std::vector<BatchQuery> MakeNoWaitMix() {
  std::vector<BatchQuery> queries;
  for (CpqAlgorithm algorithm : kAllAlgorithms) {
    for (size_t k : {size_t{1}, size_t{10}}) {
      BatchQuery q;
      q.options.algorithm = algorithm;
      q.options.k = k;
      queries.push_back(q);
    }
  }
  BatchQuery hs;
  hs.kind = BatchQueryKind::kHsClosestPairs;
  hs.options.k = 10;
  queries.push_back(hs);
  BatchQuery semi;
  semi.kind = BatchQueryKind::kSemiClosestPairs;
  queries.push_back(semi);
  return queries;
}

/// The blocking run of `queries`, then the resumable run on one worker
/// (queries that never park run one after another, in the blocking run's
/// order, so even an LRU buffer sees the same history). Each run starts
/// from empty buffers. The resumable results come back in `*got`.
void RunBlockingThenResumable(FileTreeFixture& fp, FileTreeFixture& fq,
                              const std::vector<BatchQuery>& queries,
                              std::vector<BatchQueryResult>* want,
                              std::vector<BatchQueryResult>* got) {
  BatchOptions options;
  options.threads = 1;
  KCPQ_ASSERT_OK(fp.buffer().FlushAndClear());
  KCPQ_ASSERT_OK(fq.buffer().FlushAndClear());
  *want = BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();
  KCPQ_ASSERT_OK(fp.buffer().FlushAndClear());
  KCPQ_ASSERT_OK(fq.buffer().FlushAndClear());
  *got = BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
}

/// Every query of `got` was served without a single park, and at least
/// one of its misses came from the no-wait read.
void ExpectNoParks(const std::vector<BatchQueryResult>& got,
                   const std::string& label) {
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stats.io_parks, 0u) << label << " query " << i;
    EXPECT_GT(got[i].stats.io_nowait_reads, 0u) << label << " query " << i;
    EXPECT_LE(got[i].stats.io_nowait_reads, got[i].stats.disk_accesses())
        << label << " query " << i;
  }
}

// A warm file at B=0: every node read finds its page in the OS page cache,
// so the resumable scheduler never parks, and pairs and per-query disk
// accesses equal the blocking run's.
TEST(UringNoWait, WarmFileAtZeroBufferNeverParks) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 71)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 72)));
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  std::vector<BatchQueryResult> want, got;
  RunBlockingThenResumable(fp, fq, MakeNoWaitMix(), &want, &got);
  ExpectSameResults(got, want, "warm B=0");
  ExpectNoParks(got, "warm B=0");
  for (size_t i = 0; i < got.size(); ++i) {
    // At B=0 every miss is a read, and every read was served at once.
    EXPECT_EQ(got[i].stats.io_nowait_reads, got[i].stats.disk_accesses())
        << "query " << i;
  }
  EXPECT_EQ(fp.storage().UringStats().reads_submitted, 0u);
}

// The same under a 6-page LRU per tree: misses served at once enter the
// frame table through the blocking miss path, so the replacement history
// (and with it every query's disk accesses) matches the blocking run's.
TEST(UringNoWait, WarmFileUnderSixPageLruNeverParks) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(6), fq(6);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 73)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 74)));
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  std::vector<BatchQueryResult> want, got;
  RunBlockingThenResumable(fp, fq, MakeNoWaitMix(), &want, &got);
  ExpectSameResults(got, want, "warm LRU");
  ExpectNoParks(got, "warm LRU");
}

// A cold file: the probe finds nothing in the page cache, so misses fall
// back to the ring (and park) with results identical to the blocking
// run's; the fallbacks are counted. Cold runs repeat until one parks (see
// the file comment); every one must match the blocking run.
TEST(UringNoWait, ColdFileFallsBackToTheRing) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 75)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 76)));
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  const std::vector<BatchQuery> queries = MakeNoWaitMix();
  BatchOptions options;
  options.threads = 2;
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();
  obs::Counter* fallbacks =
      obs::KcpqMetrics::Get().storage_nowait_fallbacks_total;
  const uint64_t fallbacks_before = fallbacks->value();
  uint64_t parks = 0;
  for (int attempt = 0; attempt < kColdAttempts && parks == 0; ++attempt) {
    fp.EvictPageCache();
    fq.EvictPageCache();
    const std::vector<BatchQueryResult> got =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
    ExpectSameResults(got, want, "cold attempt " + std::to_string(attempt));
    for (const BatchQueryResult& r : got) parks += r.stats.io_parks;
  }
  EXPECT_GT(parks, 0u);
  EXPECT_GT(RingReads(fp, fq), 0u);
  if (obs::MetricsCompiledIn() && obs::Enabled()) {
    EXPECT_GT(fallbacks->value(), fallbacks_before);
  }
}

// Graceful degradation, storage level: a decorator refuses kUring up
// front, and a ring whose setup fails after the capability probe (an
// absurd SQ depth) records a visible reason and serves reads through the
// pool loop — SetIoBackend never silently downgrades without a trace.
TEST(UringFallback, DecoratedAndBrokenRingsDegradeVisibly) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fx(0);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(300, 61)));

  // Bare file store: supported, active, no reason.
  EXPECT_TRUE(fx.storage().SupportsIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kUring);
  EXPECT_TRUE(fx.storage().IoBackendFallbackReason().empty());

  // Decorated stack: the retry wrapper routes async reads through the
  // portable pool, so it must refuse kUring instead of bypassing itself.
  RetryingStorageManager retrying(&fx.storage());
  EXPECT_FALSE(retrying.SupportsIoBackend(IoBackend::kUring));
  EXPECT_FALSE(retrying.SetIoBackend(IoBackend::kUring).ok());
  KCPQ_ASSERT_OK(retrying.SetIoBackend(IoBackend::kThreadPool));

  // Ring setup failure after the probe said yes: SetIoBackend still
  // succeeds, the manager reports the degradation, and reads work.
  FileStorageManager::UringOptions absurd;
  absurd.sq_depth = 1u << 30;  // far beyond IORING_MAX_ENTRIES
  fx.storage().ConfigureUring(absurd);
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kThreadPool);
  EXPECT_FALSE(fx.storage().IoBackendFallbackReason().empty());
  CpqOptions options;
  options.k = 3;
  CpqStats stats;
  auto pairs = KClosestPairs(fx.tree(), fx.tree(), options, &stats);
  KCPQ_ASSERT_OK(pairs.status());

  // Back to a sane ring: the fallback state fully clears.
  fx.storage().ConfigureUring(FileStorageManager::UringOptions{});
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kUring);
  EXPECT_TRUE(fx.storage().IoBackendFallbackReason().empty());
}

// The probe itself: on a kernel with rings the reason string is empty; on
// one without, it names the cause. Either way the two functions agree.
TEST(UringProbe, AvailabilityAndReasonAgree) {
  if (UringAvailable()) {
    EXPECT_STREQ(UringUnavailableReason(), "");
  } else {
    EXPECT_STRNE(UringUnavailableReason(), "");
  }
}

}  // namespace
}  // namespace kcpq
