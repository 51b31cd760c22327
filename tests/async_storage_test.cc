// Tests for the asynchronous batched read path: IoThreadPool basics,
// StorageManager::ReadPagesAsync across backends and decorators, the
// LatencyStorageManager concurrency contract (sleeps overlap across
// threads).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/async_io.h"
#include "storage/checksum_storage.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using Clock = std::chrono::steady_clock;

/// Allocates `n` pages on `storage`, each filled with a byte derived from
/// its index so reads can be verified.
std::vector<PageId> FillPages(StorageManager* storage, size_t n) {
  std::vector<PageId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto allocated = storage->Allocate();
    KCPQ_CHECK_OK(allocated.status());
    Page page(storage->page_size());
    std::memset(page.data(), static_cast<int>('A' + i % 26), page.size());
    KCPQ_CHECK_OK(storage->WritePage(allocated.value(), page));
    ids.push_back(allocated.value());
  }
  return ids;
}

/// Thread-safe collector for async completions.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<AsyncPageRead> done;

  AsyncReadCallback Callback() {
    return [this](AsyncPageRead read) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(read));
      cv.notify_all();
    };
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.size() >= n; });
  }
  const AsyncPageRead* Find(PageId id) {
    std::lock_guard<std::mutex> lock(mu);
    for (const AsyncPageRead& r : done) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }
};

TEST(IoThreadPoolTest, ExecutesAllSubmittedTasksBeforeJoin) {
  std::atomic<int> ran{0};
  {
    IoThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue: every submitted task must run.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(IoThreadPoolTest, SharedPoolIsUsable) {
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  IoThreadPool::Shared().Submit([&] {
    // Notify under the lock: the waiter destroys cv as soon as it observes
    // ran, so the worker may touch it only while the waiter is blocked.
    std::lock_guard<std::mutex> lock(mu);
    ran.store(true);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load(); });
  EXPECT_GE(IoThreadPool::Shared().threads(), 1u);
}

TEST(AsyncStorageTest, SyncBackendCompletesInline) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 4);
  KCPQ_ASSERT_OK(storage.SetIoBackend(IoBackend::kSync));
  Completions got;
  storage.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  // kSync completes before ReadPagesAsync returns — no waiting needed.
  ASSERT_EQ(got.done.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const AsyncPageRead* r = got.Find(ids[i]);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
    ASSERT_EQ(r->page.size(), storage.page_size());
    EXPECT_EQ(r->page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
}

TEST(AsyncStorageTest, ThreadPoolBackendReadsCorrectDataAndReportsErrors) {
  MemoryStorageManager storage;
  const std::vector<PageId> valid = FillPages(&storage, 8);
  ASSERT_EQ(storage.io_backend(), IoBackend::kThreadPool);  // default
  std::vector<PageId> ids = valid;
  ids.push_back(storage.PageCount() + 5);  // out of range
  Completions got;
  storage.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    const AsyncPageRead* r = got.Find(valid[i]);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
    EXPECT_EQ(r->page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  const AsyncPageRead* bad = got.Find(ids.back());
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->status.ok());
}

TEST(AsyncStorageTest, EmptyBatchNeverInvokesCallback) {
  MemoryStorageManager storage;
  storage.ReadPagesAsync(nullptr, 0, [](AsyncPageRead) {
    FAIL() << "callback for an empty batch";
  });
}

TEST(AsyncStorageTest, SetIoBackendRejectsUnsupported) {
  MemoryStorageManager storage;
  EXPECT_TRUE(storage.SupportsIoBackend(IoBackend::kSync));
  EXPECT_TRUE(storage.SupportsIoBackend(IoBackend::kThreadPool));
  EXPECT_FALSE(storage.SupportsIoBackend(IoBackend::kUring));
  const Status bad = storage.SetIoBackend(IoBackend::kUring);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.io_backend(), IoBackend::kThreadPool);  // unchanged
  KCPQ_EXPECT_OK(storage.SetIoBackend(IoBackend::kSync));
  EXPECT_EQ(storage.io_backend(), IoBackend::kSync);
}

TEST(AsyncStorageTest, DecoratorsComposeOnTheAsyncPath) {
  // The default async implementation routes through the virtual ReadPage,
  // so a checksum decorator verifies every async read.
  MemoryStorageManager base;
  ChecksummedStorageManager checksummed(&base);
  const std::vector<PageId> ids = FillPages(&checksummed, 6);
  Completions got;
  checksummed.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const AsyncPageRead* r = got.Find(ids[i]);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
    EXPECT_EQ(r->page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  EXPECT_EQ(checksummed.corruption_detections(), 0u);
}

// The satellite contract pinned by latency_storage.h: the sleep happens on
// the calling thread outside any lock, so two threads reading distinct
// pages pay ~1 latency of wall-clock, not 2.
TEST(LatencyOverlapTest, ConcurrentReadsOnDistinctPagesOverlap) {
  constexpr auto kLatency = std::chrono::milliseconds(100);
  MemoryStorageManager base;
  const std::vector<PageId> ids = FillPages(&base, 2);
  LatencyStorageManager slow(
      &base, std::chrono::duration_cast<std::chrono::microseconds>(kLatency));
  const auto read_one = [&](PageId id) {
    Page page;
    KCPQ_EXPECT_OK(slow.ReadPage(id, &page, nullptr));
  };
  const auto start = Clock::now();
  std::thread other([&] { read_one(ids[0]); });
  read_one(ids[1]);
  other.join();
  const auto elapsed = Clock::now() - start;
  // Each read sleeps >= 100 ms; serialized sleeps would take >= 200 ms.
  // 180 ms leaves generous scheduling slack while still distinguishing
  // the two regimes.
  EXPECT_GE(elapsed, kLatency);
  EXPECT_LT(elapsed, std::chrono::milliseconds(180))
      << "concurrent reads on distinct pages appear serialized";
}

TEST(LatencyOverlapTest, AsyncBatchOverlapsLatencyReads) {
  constexpr auto kLatency = std::chrono::milliseconds(25);
  MemoryStorageManager base;
  const std::vector<PageId> ids = FillPages(&base, 8);
  LatencyStorageManager slow(
      &base, std::chrono::duration_cast<std::chrono::microseconds>(kLatency));
  Completions got;
  const auto start = Clock::now();
  slow.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  const auto elapsed = Clock::now() - start;
  for (const PageId id : ids) {
    const AsyncPageRead* r = got.Find(id);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
  }
  // 8 serialized reads would take >= 200 ms; the shared pool (>= 8
  // threads by default) overlaps them.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150))
      << "async batch reads appear serialized";
}

}  // namespace
}  // namespace kcpq
