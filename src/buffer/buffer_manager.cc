#include "buffer/buffer_manager.h"

#include <algorithm>
#include <utility>

#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

namespace kcpq {

BufferManager::BufferManager(StorageManager* storage, size_t capacity_pages,
                             std::unique_ptr<ReplacementPolicy> policy)
    : storage_(storage), capacity_(capacity_pages) {
  auto shard = std::make_unique<Shard>();
  shard->policy = std::move(policy);
  shard->capacity = capacity_pages;
  shards_.push_back(std::move(shard));
}

BufferManager::BufferManager(
    StorageManager* storage, size_t capacity_pages, size_t shards,
    const std::function<std::unique_ptr<ReplacementPolicy>()>& policy_factory)
    : storage_(storage), capacity_(capacity_pages) {
  const size_t n = std::max<size_t>(shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = policy_factory();
    // Even split; the first capacity % n shards take the remainder.
    shard->capacity = capacity_pages / n + (i < capacity_pages % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

BufferManager::~BufferManager() {
  // Settle the staging area first: completion callbacks capture `this`,
  // so the buffer must not die while reads are in flight.
  if (staging_used_.load(std::memory_order_relaxed)) SettleStaged();
  // Best effort; callers that care about durability call Flush themselves.
  Flush();
}

void BufferManager::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_hits_total);
}

void BufferManager::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_misses_total);
}

namespace {

/// Wraps a physical read in an io_wait trace span when the query asked
/// for tracing; otherwise forwards with zero added work.
Status TracedStorageRead(StorageManager* storage, PageId id, Page* out,
                         QueryContext* ctx) {
  obs::TraceBuffer* trace = ctx != nullptr ? ctx->trace() : nullptr;
  if (trace == nullptr) return storage->ReadPage(id, out, ctx);
  obs::TraceEvent e;
  e.kind = obs::TraceEventKind::kIoWait;
  e.a = id;
  e.ts_ns = trace->NowNs();
  Status s = storage->ReadPage(id, out, ctx);
  uint64_t end = trace->NowNs();
  e.dur_ns = end > e.ts_ns ? end - e.ts_ns : 1;
  trace->Record(e);
  // Only traced queries pay for read timing, so the histogram samples
  // traced traffic; untraced hot paths never touch the clock.
  KCPQ_METRIC_OBSERVE(obs::KcpqMetrics::Get().io_read_wait_seconds,
                      static_cast<double>(e.dur_ns) * 1e-9);
  return s;
}

}  // namespace

Status BufferManager::Deliver(Frame& frame, const ReadSink& sink) {
  const bool bytes_dropped = frame.page.size() == 0 && frame.image != nullptr;
  if (sink.page != nullptr) {
    if (bytes_dropped) {
      *sink.page = Page(storage_->page_size());
      frame.codec->encode(frame.image.get(), sink.page);
    } else {
      *sink.page = frame.page;
    }
    return Status::OK();
  }
  if (frame.image == nullptr || frame.codec != sink.codec) {
    if (bytes_dropped) {
      frame.page = Page(storage_->page_size());
      frame.codec->encode(frame.image.get(), &frame.page);
    }
    PageImage image;
    KCPQ_RETURN_IF_ERROR(
        sink.codec->decode(frame.page, storage_->PageCount(), &image));
    frame.image = std::move(image);
    frame.codec = sink.codec;
  }
  // The image can rebuild a clean frame's bytes: do not keep both.
  if (!frame.dirty) frame.page = Page();
  *sink.image = frame.image;
  return Status::OK();
}

Status BufferManager::DeliverPassThrough(Page page, const ReadSink& sink) {
  if (sink.page != nullptr) {
    *sink.page = std::move(page);
    return Status::OK();
  }
  Frame one_off(std::move(page), /*dirty=*/false);
  return Deliver(one_off, sink);
}

Status BufferManager::Read(PageId id, Page* out, QueryContext* ctx) {
  TryReadOutcome outcome;
  return ReadInto(id, ctx, ReadSink{out, nullptr, nullptr}, &outcome);
}

Status BufferManager::ReadImage(PageId id, const PageCodec* codec,
                                PageImage* out, QueryContext* ctx) {
  TryReadOutcome outcome;
  return ReadInto(id, ctx, ReadSink{nullptr, codec, out}, &outcome);
}

Status BufferManager::ReadInto(PageId id, QueryContext* ctx,
                               const ReadSink& sink, TryReadOutcome* outcome) {
  if (ctx != nullptr) ctx->OnPageRead(BufferKey(), id, storage_->page_size());
  // A miss counts as a disk access (the paper's metric) whether the page
  // then arrives via a claimed demand fetch or a synchronous read.
  if (capacity_ == 0) {
    CountMiss();
    Page page;
    if (!(staging_used_.load(std::memory_order_relaxed) &&
          ClaimStaged(id, &page))) {
      KCPQ_RETURN_IF_ERROR(TracedStorageRead(storage_, id, &page, ctx));
    }
    return DeliverPassThrough(std::move(page), sink);
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    CountHit();
    shard.policy->OnAccess(id);
    outcome->hit = true;
    return Deliver(it->second, sink);
  }
  // Miss: fetch under the shard lock, so concurrent readers of the same
  // page trigger exactly one storage read per residency.
  CountMiss();
  Page page;
  if (!(staging_used_.load(std::memory_order_relaxed) &&
        ClaimStaged(id, &page))) {
    KCPQ_RETURN_IF_ERROR(TracedStorageRead(storage_, id, &page, ctx));
  }
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(id);
  auto inserted =
      shard.frames.emplace(id, Frame(std::move(page), /*dirty=*/false)).first;
  return Deliver(inserted->second, sink);
}

Status BufferManager::Write(PageId id, const Page& page) {
  if (capacity_ == 0) {
    return storage_->WritePage(id, page);
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    shard.policy->OnAccess(id);
    it->second.page = page;
    it->second.dirty = true;
    it->second.image.reset();
    return Status::OK();
  }
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(id);
  shard.frames.emplace(id, Frame(page, /*dirty=*/true));
  return Status::OK();
}

void BufferManager::OnFetchComplete(AsyncPageRead done) {
  std::vector<Waker> waiters;
  {
    std::lock_guard<std::mutex> lock(staging_.mu);
    auto it = staging_.entries.find(done.id);
    if (it == staging_.entries.end()) return;  // unreachable by protocol
    StagedRead& entry = it->second;
    waiters = std::move(entry.waiters);
    if (entry.abandoned) {
      // Unwanted (Free / FlushAndClear): drop it; the woken waiters
      // re-issue fresh.
      staging_.entries.erase(it);
    } else {
      // A failed fetch stages its error: the first claimer takes it as its
      // read's result, matching the blocking path's failed synchronous
      // read.
      entry.ready = true;
      entry.status = done.status;
      entry.page = std::move(done.page);
    }
  }
  // Wake parked tasks outside the staging lock (wakers take scheduler
  // locks), but before the inflight decrement below: the buffer is
  // guaranteed alive until a settle observes inflight == 0.
  for (const Waker& waker : waiters) waker();
  // Last touch, and deliberately under the lock: a settle (possibly the
  // destructor) woken by this decrement may free the buffer the moment it
  // observes inflight == 0, so nothing may run on this thread afterwards
  // except releasing the mutex.
  {
    std::lock_guard<std::mutex> lock(staging_.mu);
    --staging_.inflight;
    staging_.cv.notify_all();
  }
}

bool BufferManager::ClaimStaged(PageId id, Page* out) {
  std::vector<Waker> waiters;
  bool claimed = false;
  {
    std::unique_lock<std::mutex> lock(staging_.mu);
    auto it = staging_.entries.find(id);
    if (it == staging_.entries.end()) return false;
    if (!it->second.ready) {
      // In flight: wait for the completion. The caller may hold its shard
      // lock; by the staging invariant (file comment) neither the fetch's
      // submission nor its completion needs that lock.
      staging_.cv.wait(lock, [&] {
        auto i = staging_.entries.find(id);
        return i == staging_.entries.end() || i->second.ready;
      });
      it = staging_.entries.find(id);
      if (it == staging_.entries.end()) return false;  // abandoned
    }
    // A failed fetch is dropped and the caller retries synchronously,
    // through the full decorator stack and with its own context.
    claimed = it->second.status.ok();
    if (claimed) *out = std::move(it->second.page);
    waiters = std::move(it->second.waiters);
    staging_.entries.erase(it);
  }
  // Parked tasks waiting on the entry re-run their TryRead: the claimer's
  // caller is about to make the page resident (or, at capacity 0, they
  // re-issue their own fetch).
  for (const Waker& waker : waiters) waker();
  return claimed;
}

void BufferManager::StartFetchLocked(PageId id, const Waker& waker) {
  // The synchronous miss path must consult the area from now on.
  staging_used_.store(true, std::memory_order_relaxed);
  auto [it, inserted] = staging_.entries.emplace(id, StagedRead{});
  (void)inserted;  // caller verified no entry exists
  it->second.waiters.push_back(waker);
  ++staging_.inflight;
}

void BufferManager::IssueFetch(PageId id) {
  storage_->ReadPagesAsync(
      &id, 1, [this](AsyncPageRead done) { OnFetchComplete(std::move(done)); });
}

Status BufferManager::TryRead(PageId id, Page* out, QueryContext* ctx,
                              const Waker& waker, TryReadOutcome* outcome) {
  return TryReadInto(id, ctx, waker, outcome, ReadSink{out, nullptr, nullptr});
}

Status BufferManager::TryReadImage(PageId id, const PageCodec* codec,
                                   PageImage* out, QueryContext* ctx,
                                   const Waker& waker,
                                   TryReadOutcome* outcome) {
  return TryReadInto(id, ctx, waker, outcome, ReadSink{nullptr, codec, out});
}

Status BufferManager::TryReadInto(PageId id, QueryContext* ctx,
                                  const Waker& waker, TryReadOutcome* outcome,
                                  const ReadSink& sink) {
  *outcome = TryReadOutcome{};
  // No waker to fire: the caller drives the query inline, so it takes the
  // synchronous fetch and never parks.
  if (!waker) return ReadInto(id, ctx, sink, outcome);
  if (ctx != nullptr) ctx->OnPageRead(BufferKey(), id, storage_->page_size());
  bool issue = false;
  bool served = false;
  Status result;
  Page page;
  std::vector<Waker> waiters;
  // The staging-area step for a non-resident page: claims a ready entry
  // (served), joins an in-flight one (parked). With no entry it starts a
  // demand fetch when `start` is set; otherwise it returns false so the
  // caller may first try a read that needs no wait.
  const auto consult = [&](bool start) {
    std::lock_guard<std::mutex> lock(staging_.mu);
    auto it = staging_.entries.find(id);
    if (it == staging_.entries.end()) {
      if (!start) return false;
      StartFetchLocked(id, waker);
      issue = true;
    } else if (!it->second.ready) {
      it->second.waiters.push_back(waker);
    } else {
      served = true;
      result = it->second.status;
      if (result.ok()) page = std::move(it->second.page);
      waiters = std::move(it->second.waiters);
      staging_.entries.erase(it);
    }
    return true;
  };
  if (capacity_ == 0) {
    // Pass-through: every serve is a miss (the paper's zero-buffer
    // setting). Concurrent parkers coalesce on one fetch, but only the
    // first re-runner claims it — later ones find no entry and re-issue,
    // so each query still pays one miss per read, exactly like blocking
    // pass-through reads. The probe runs outside the area lock: no
    // syscall under a lock every reader takes.
    if (!consult(false)) {
      served = outcome->nowait = storage_->TryReadPageNow(id, &page);
      if (!served) consult(true);
    }
    for (const Waker& w : waiters) w();
    if (issue) IssueFetch(id);
    if (!served) {
      outcome->parked = true;
      return Status::OK();
    }
    CountMiss();
    if (!result.ok()) return result;
    return DeliverPassThrough(std::move(page), sink);
  }
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto fit = shard.frames.find(id);
    if (fit != shard.frames.end()) {
      CountHit();
      shard.policy->OnAccess(id);
      outcome->hit = true;
      return Deliver(fit->second, sink);
    }
    // Non-resident: consult the staging area (shard mu -> staging mu is
    // the legal lock order). Where a demand fetch would start, probe for a
    // read that needs no wait first, under the shard lock like a blocking
    // miss's read, so no other reader of the page can race the insert.
    if (!consult(false)) {
      served = outcome->nowait = storage_->TryReadPageNow(id, &page);
      if (!served) consult(true);
    }
    if (served && result.ok()) {
      // The claim (or the probe's read) is this query's demand miss:
      // counted and inserted through the same eviction path as a blocking
      // miss, so the replacement policy sees the identical history. Parked
      // waiters on an erased entry re-run and find the page resident (a
      // hit) — matching the blocking path, where threads queued on the
      // shard mutex during the fetch hit the fresh frame.
      CountMiss();
      result = EvictIfFull(shard);
      if (result.ok()) {
        shard.policy->OnInsert(id);
        auto inserted =
            shard.frames.emplace(id, Frame(std::move(page), /*dirty=*/false))
                .first;
        result = Deliver(inserted->second, sink);
      }
    } else if (served) {
      // Failed fetch: the access still counts, like a failed synchronous
      // read on the blocking path.
      CountMiss();
    }
  }
  for (const Waker& w : waiters) w();
  if (issue) IssueFetch(id);
  if (!served) {
    outcome->parked = true;
    return Status::OK();
  }
  return result;
}

void BufferManager::SettleStaged() {
  std::vector<Waker> waiters;
  {
    std::unique_lock<std::mutex> lock(staging_.mu);
    staging_.cv.wait(lock, [&] { return staging_.inflight == 0; });
    // Waiters (none in steady state — completions fire them — but possible
    // on teardown races) are woken so no task sleeps forever.
    for (auto& [id, entry] : staging_.entries) {
      for (Waker& waker : entry.waiters) waiters.push_back(std::move(waker));
    }
    staging_.entries.clear();
  }
  for (const Waker& waker : waiters) waker();
}

Result<PageId> BufferManager::Allocate() { return storage_->Allocate(); }

Status BufferManager::Free(PageId id) {
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      shard.policy->OnErase(id);
      shard.frames.erase(it);
    }
  }
  if (staging_used_.load(std::memory_order_relaxed)) {
    // A freed page's staged read must never be claimed: drop a landed
    // copy, abandon an in-flight one (its completion is dropped and wakes
    // any parked tasks, which re-issue and surface the freed-page error
    // through the normal fetch path).
    std::vector<Waker> waiters;
    {
      std::lock_guard<std::mutex> lock(staging_.mu);
      auto it = staging_.entries.find(id);
      if (it != staging_.entries.end()) {
        if (it->second.ready) {
          waiters = std::move(it->second.waiters);
          staging_.entries.erase(it);
        } else {
          it->second.abandoned = true;
        }
      }
    }
    for (const Waker& waker : waiters) waker();
  }
  return storage_->Free(id);
}

Status BufferManager::EvictIfFull(Shard& shard) {
  // The empty check matters when capacity_pages < shards leaves this
  // shard with capacity 0: there is no victim to choose, and the caller
  // is about to insert — such a shard holds exactly its most recent page.
  if (shard.frames.size() < shard.capacity || shard.frames.empty()) {
    return Status::OK();
  }
  const PageId victim = shard.policy->ChooseVictim();
  auto it = shard.frames.find(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_evictions_total);
  if (it->second.dirty) {
    writebacks_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
    KCPQ_RETURN_IF_ERROR(storage_->WritePage(victim, it->second.page));
  }
  shard.frames.erase(it);
  return Status::OK();
}

Status BufferManager::Flush() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (!frame.dirty) continue;
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
      KCPQ_RETURN_IF_ERROR(storage_->WritePage(id, frame.page));
      frame.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferManager::FlushAndClear() {
  KCPQ_RETURN_IF_ERROR(Flush());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, frame] : shard->frames) shard->policy->OnErase(id);
    shard->frames.clear();
  }
  if (staging_used_.load(std::memory_order_relaxed)) {
    // Cold cache means an empty staging area too: drop landed pages,
    // abandon in-flight fetches (without waiting — their completions are
    // dropped).
    std::vector<Waker> waiters;
    {
      std::lock_guard<std::mutex> lock(staging_.mu);
      for (auto it = staging_.entries.begin();
           it != staging_.entries.end();) {
        if (it->second.ready) {
          for (Waker& waker : it->second.waiters) {
            waiters.push_back(std::move(waker));
          }
          it = staging_.entries.erase(it);
        } else {
          it->second.abandoned = true;
          ++it;
        }
      }
    }
    for (const Waker& waker : waiters) waker();
  }
  return Status::OK();
}

size_t BufferManager::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

BufferStats BufferManager::stats() const {
  BufferStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.writebacks = writebacks_.load(std::memory_order_relaxed);
  return s;
}

void BufferManager::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  writebacks_.store(0, std::memory_order_relaxed);
}

}  // namespace kcpq
