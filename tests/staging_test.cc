// Stress test for the BufferManager's demand staging (the invariant stated
// in buffer/buffer_manager.h): on a one-shard buffer over a slow store,
// parked TryRead readers start in-flight demand fetches while empty-waker
// readers miss on the same pages and wait those fetches out under the
// shard lock. Nothing may hang, every reader sees the page's own bytes,
// storage reads equal counted misses, and with frames to hold pages no
// page is ever read twice at once — a second read while one is in flight
// would be a second fetch for one residency. The suite name matches the
// TSan job's filter.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/replacement_policy.h"
#include "common/resumable.h"
#include "gtest/gtest.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

constexpr size_t kPages = 24;
constexpr int kThreads = 4;
constexpr int kRounds = 300;

/// Aborts the process, naming the test, if `done` is not set within the
/// limit: a staging deadlock then fails loudly instead of hanging ctest.
class Watchdog {
 public:
  explicit Watchdog(const char* what)
      : thread_([this, what] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(120),
                            [this] { return done_; })) {
            std::fprintf(stderr, "%s: readers hung for 120 s\n", what);
            std::abort();
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Counts storage reads that start while another read of the same page is
/// still running. Sits above the latency store, so a read's window spans
/// its simulated latency; the async path reaches it through the default
/// pool dispatch, which calls ReadPage per page.
class OverlapCountingStorage final : public StorageManager {
 public:
  explicit OverlapCountingStorage(StorageManager* base)
      : StorageManager(base->page_size()), base_(base), running_(kPages) {}

  uint64_t overlaps() const { return overlaps_.load(); }

  uint64_t PageCount() const override { return base_->PageCount(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status WritePage(PageId id, const Page& page) override {
    return base_->WritePage(id, page);
  }
  Status Sync() override { return base_->Sync(); }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    std::atomic<int>& running = running_.at(id);
    if (running.fetch_add(1) > 0) overlaps_.fetch_add(1);
    CountRead();
    const Status s = base_->ReadPage(id, page, ctx);
    running.fetch_sub(1);
    return s;
  }

 private:
  StorageManager* base_;
  std::vector<std::atomic<int>> running_;  // by page id
  std::atomic<uint64_t> overlaps_{0};
};

/// Hammers `buffer` from kThreads threads: even threads read through
/// TryRead with a waker (parking and starting demand fetches), odd ones
/// with an empty waker (the synchronous path that waits out in-flight
/// fetches under the shard lock). Pages hold a byte derived from their id.
void Hammer(BufferManager* buffer, const std::vector<PageId>& ids) {
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([buffer, &ids, t] {
      InlineWakerGate gate;
      const Waker waker = t % 2 == 0 ? gate.waker() : Waker();
      for (int round = 0; round < kRounds; ++round) {
        // Threads 2k (parking) and 2k + 1 (synchronous) walk the same
        // pages in step, so the synchronous reader keeps arriving at a
        // page its partner has just parked on; the two pairs walk one
        // page apart.
        const PageId id = ids[(round + t / 2) % kPages];
        Page page;
        BufferManager::TryReadOutcome outcome;
        KCPQ_ASSERT_OK(buffer->TryRead(id, &page, nullptr, waker, &outcome));
        while (outcome.parked) {
          gate.Wait();
          KCPQ_ASSERT_OK(
              buffer->TryRead(id, &page, nullptr, waker, &outcome));
        }
        ASSERT_EQ(page.size(), kDefaultPageSize);
        EXPECT_EQ(page.data()[0], static_cast<uint8_t>(id % 251)) << id;
        EXPECT_EQ(page.data()[page.size() - 1], static_cast<uint8_t>(id % 251))
            << id;
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

class TryReadStagingStress : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t i = 0; i < kPages; ++i) {
      auto id = memory_.Allocate();
      KCPQ_ASSERT_OK(id.status());
      Page page(kDefaultPageSize);
      std::memset(page.data(), static_cast<int>(id.value() % 251),
                  page.size());
      KCPQ_ASSERT_OK(memory_.WritePage(id.value(), page));
      ids_.push_back(id.value());
    }
    ASSERT_LT(ids_.back(), kPages);
    KCPQ_ASSERT_OK(store_.SetIoBackend(IoBackend::kThreadPool));
  }

  MemoryStorageManager memory_{kDefaultPageSize};
  // Slow enough that a fetch is still in flight when other readers reach
  // the page, fast enough that 1,200 reads stay well under a second.
  LatencyStorageManager slow_{&memory_, std::chrono::microseconds(200)};
  OverlapCountingStorage store_{&slow_};
  std::vector<PageId> ids_;
};

TEST_F(TryReadStagingStress, OneShardFourThreadsOneStorageReadPerResidency) {
  // Fewer frames than pages: pages are evicted and fetched again, so the
  // staging area sees many residencies per page.
  BufferManager buffer(&store_, kPages / 3, /*shards=*/1,
                       [] { return MakeLruPolicy(); });
  {
    Watchdog watchdog("OneShardFourThreadsOneStorageReadPerResidency");
    Hammer(&buffer, ids_);
  }
  buffer.SettleStaged();
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.hits + stats.misses, uint64_t{kThreads} * kRounds);
  EXPECT_GT(stats.evictions, 0u);
  // Each miss establishes one residency with one read, and no reader
  // fetched a page another reader's fetch was already bringing in.
  EXPECT_EQ(store_.stats().reads, stats.misses);
  EXPECT_EQ(store_.overlaps(), 0u);
}

TEST_F(TryReadStagingStress, PassThroughFourThreadsOneStorageReadPerServe) {
  // Capacity 0, the paper's zero buffer: no frames, every serve a miss.
  BufferManager buffer(&store_, 0, /*shards=*/1,
                       [] { return MakeLruPolicy(); });
  {
    Watchdog watchdog("PassThroughFourThreadsOneStorageReadPerServe");
    Hammer(&buffer, ids_);
  }
  buffer.SettleStaged();
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, uint64_t{kThreads} * kRounds);
  // Every fetch is claimed by exactly one serve: its starter waits on it
  // and takes it unless another reader claimed it first. (Without frames,
  // a synchronous read may overlap a parked reader's fetch: each serve
  // is its own read.)
  EXPECT_EQ(store_.stats().reads, stats.misses);
}

}  // namespace
}  // namespace kcpq
