#include "storage/async_io.h"

#include <cstdlib>
#include <string>
#include <utility>

namespace kcpq {

namespace {

size_t PoolSizeFromEnv() {
  const char* env = std::getenv("KCPQ_IO_THREADS");
  if (env == nullptr || *env == '\0') return IoThreadPool::kDefaultThreads;
  char* end = nullptr;
  long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1) {
    return IoThreadPool::kDefaultThreads;
  }
  if (value > 64) value = 64;
  return static_cast<size_t>(value);
}

// Set for the lifetime of WorkerLoop on each pool thread; never reset
// (worker threads run the loop until pool destruction).
thread_local bool t_on_io_worker = false;

}  // namespace

bool IoThreadPool::OnWorkerThread() { return t_on_io_worker; }

IoThreadPool& IoThreadPool::Shared() {
  // Meyers singleton with a joining destructor: workers are stopped and
  // joined at static destruction, after all storage managers with static
  // lifetime but before the process exits, so sanitizers see no leaked
  // threads.
  static IoThreadPool pool(PoolSizeFromEnv());
  return pool;
}

IoThreadPool::IoThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoThreadPool::~IoThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void IoThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void IoThreadPool::WorkerLoop() {
  t_on_io_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: a submitted completion must
      // run, or its waiter (e.g. BufferManager::SettleStaged) hangs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace kcpq
