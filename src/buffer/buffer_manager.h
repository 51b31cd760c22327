// Page buffer (cache) between the R-tree and its storage manager.
//
// Cost accounting, matching the paper: a query's "disk accesses" are the
// ReadPage calls this buffer issues to the storage manager — i.e. its
// misses. With capacity 0 the buffer is a pass-through and every node
// access costs one disk access (the paper's "zero buffer" setting). The
// paper dedicates B/2 pages to each of the two R-trees (Section 4.3.3):
// here each tree simply owns a BufferManager of capacity B/2 over its own
// storage manager.
//
// Decoded images and their lifetime: a frame may also carry an *image* of
// its page — an immutable, decoded form built by a caller-supplied
// PageCodec (the R-tree's node codec, rtree/node.h) the first time the
// page is read through ReadImage / TryReadImage in a residency, and
// validated then. Every later ReadImage hit hands out the same shared_ptr:
// no page copy, no decode, no allocation. An image is dropped, never
// edited: on Write (the page changed), Free, eviction and FlushAndClear. A
// reader that still holds an image after that keeps the old, immutable
// node — exactly what a copy taken before the change would have shown it.
// At capacity 0 there are no frames, so each read decodes once. An image
// is built and handed out under its shard's lock; once out it is
// immutable, so any thread may read it without a lock for as long as it
// holds the shared_ptr. A clean frame keeps only its image, not the raw
// bytes too: Read (meta pages, writers that edit a node) gets them
// re-encoded from the image. Image reads count, charge and touch the
// replacement policy exactly like Read / TryRead. Writes are write-back:
// dirty frames keep their bytes and reach storage on eviction or Flush.
//
// Locking protocol (since the parallel batch executor, src/exec/): the
// frame table is split into `shards` independent shards, each owning a
// mutex, a frames map, a replacement policy, and a slice of the capacity.
// A page id maps to the shard `id % shards`; the shard's mutex is held for
// the whole Read / Write / Free operation on that page, including the
// storage call on a miss, so a page is fetched at most once per residency
// and the policy sees a consistent history. Operations on pages of
// different shards never contend. Flush / FlushAndClear / resident() lock
// one shard at a time; they are safe to run concurrently with readers but
// see no global atomic snapshot (don't race them against writers and
// expect exact counts). The default `shards = 1` reproduces the classic
// single-threaded buffer byte for byte — same policy decisions, same
// eviction order.
//
// Non-blocking reads (docs/io.md, "completion-driven scheduling"):
// TryRead is the query state machines' Read. A resident page is served
// exactly like a blocking hit. For a non-resident one the storage is first
// asked for the page without waiting (StorageManager::TryReadPageNow); a
// page the OS page cache already holds is served at once, as a counted
// miss, with no park. Otherwise the caller *parks*: its waker is
// registered on the page's in-flight demand fetch (starting one through
// ReadPagesAsync if none exists) and TryRead returns with outcome.parked.
// In-flight fetches and their landed pages live in the staging area, a
// side table that is deliberately not the frame table: the replacement
// policy sees a page only once a reader claims it. When the fetch
// completes, the buffer fires the wakers and the callers re-run TryRead;
// the first re-runner claims the page (inserted through the normal
// eviction path) and counts the miss, later ones find it resident and
// count hits — the same one-miss-per-residency (or, at capacity 0,
// one-miss-per-read) invariant the blocking path's fetch-under-shard-lock
// provides. A TryRead with an empty waker is a plain Read that reports its
// outcome: the query drives itself inline and has nothing to park on. A
// synchronous miss still claims a staged page, or waits out an in-flight
// one, before it reads storage itself, so a page another query parked on
// is not fetched twice. Demand fetches carry no QueryContext (async
// completions are context-free by the storage contract), so
// deadline-aware retry abandonment doesn't apply to them; a failed fetch
// is delivered to the first TryRead claimer as its read's error (a
// synchronous claimer retries through storage instead), and later waiters
// re-issue fresh.
//
// Staging invariant (tests/staging_test.cc stresses it):
//   1. Lock order: a shard mutex may be held when taking the staging
//      mutex, never the reverse. Completion callbacks take only the
//      staging mutex.
//   2. Whoever registers an in-flight entry submits its read after
//      releasing every lock, taking no shard lock in between. A
//      synchronous reader may therefore wait for the entry while it holds
//      the page's shard lock: neither the submission nor the completion
//      it waits for needs that lock.
//   3. At capacity > 0, a fetch of page p (synchronous, no-wait or
//      in-flight) starts only under p's shard lock, when p has neither a
//      frame nor a staged entry, and an entry becomes a frame only under
//      that lock. So there is one storage read per residency however many
//      readers park on or wait out the fetch, and they all see its bytes.
//
// Statistics: the counters (stats()) are atomics, exact under any
// concurrency, and count every thread's reads of this buffer. A
// before/after delta is therefore one query's only while that query is
// the buffer's sole reader (the CLI's EXPLAIN buffer line); the engines
// count their own disk accesses from the TryReadOutcome of each read
// (miss at claim).
// Every hit/miss/eviction also feeds the process-wide metrics registry
// (obs/kcpq_metrics.h: kcpq_buffer_*_total).

#ifndef KCPQ_BUFFER_BUFFER_MANAGER_H_
#define KCPQ_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "buffer/replacement_policy.h"
#include "common/query_context.h"
#include "common/resumable.h"
#include "common/status.h"
#include "storage/storage_manager.h"

namespace kcpq {

/// Hit/miss accounting snapshot. `misses` equals the physical reads this
/// buffer caused — the paper's disk-access metric; `logical_reads = hits +
/// misses`.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;

  uint64_t logical_reads() const { return hits + misses; }
  void Reset() { *this = BufferStats{}; }
};

/// A page's decoded, immutable image (type-erased so the buffer stays
/// ignorant of page formats; the codec's caller knows the real type).
using PageImage = std::shared_ptr<const void>;

/// How one page format turns into an image and back.
struct PageCodec {
  /// Builds `*image` from `page`, validating it; `page_count` is the
  /// store's, bounding any page id the page links to. A non-OK status is
  /// returned to the reader and nothing is cached.
  Status (*decode)(const Page& page, uint64_t page_count, PageImage* image);
  /// Writes `image` back out as page bytes into `*page` (already sized):
  /// every byte `decode` reads; bytes the format ignores come back zero.
  void (*encode)(const void* image, Page* page);
};

class BufferManager {
 public:
  /// `storage` must outlive the buffer manager. `capacity_pages` may be 0
  /// (pass-through). `policy` defaults to LRU, the paper's setting. This
  /// constructor builds a single-shard buffer: correct under concurrency,
  /// but every access serializes on one mutex.
  BufferManager(StorageManager* storage, size_t capacity_pages,
                std::unique_ptr<ReplacementPolicy> policy = MakeLruPolicy());

  /// Sharded constructor for concurrent workloads: `shards` (>= 1)
  /// independent shard locks; `policy_factory` is called once per shard
  /// (each shard replaces pages independently). Capacity is split across
  /// shards as evenly as possible.
  BufferManager(StorageManager* storage, size_t capacity_pages, size_t shards,
                const std::function<std::unique_ptr<ReplacementPolicy>()>&
                    policy_factory);

  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Reads page `id` into `*out`, from cache if resident.
  ///
  /// When `ctx` is given, the page is charged to the query's
  /// ResourceAccountant — once per distinct page, on hits and misses alike,
  /// so a query's accounted footprint is the set of pages it touched,
  /// independent of thread count and buffer state — and forwarded to the
  /// storage stack on a miss (deadline-aware retries).
  Status Read(PageId id, Page* out, QueryContext* ctx = nullptr);

  /// Read, but hands out the page's image built by `codec` (see the file
  /// comment) instead of a copy of its bytes. Same counting and charging.
  Status ReadImage(PageId id, const PageCodec* codec, PageImage* out,
                   QueryContext* ctx = nullptr);

  /// How a TryRead attempt was resolved. Exactly one of three shapes:
  /// parked (no page, no counting yet), served hit (`hit`), or served
  /// miss (`!parked && !hit`; `nowait` marks a miss the storage served at
  /// once, without a park).
  struct TryReadOutcome {
    bool parked = false;
    bool hit = false;
    bool nowait = false;
  };

  /// Non-blocking Read for resumable engines ("park on miss, wake on
  /// completion" — see the file comment). Serves the page when it is
  /// resident or staged, or when no fetch of it is in flight and the
  /// storage can read it without waiting
  /// (StorageManager::TryReadPageNow: a page-cache hit on a file store;
  /// the miss is counted and inserted exactly like a blocking miss).
  /// Otherwise registers `waker` with the page's in-flight fetch
  /// (starting a demand fetch if none exists), sets outcome->parked and
  /// returns OK without counting anything. The waker
  /// may fire from an I/O thread, possibly before TryRead returns; fire
  /// semantics are at-least-once per park (a woken caller must re-run
  /// TryRead, which may park again). Counting matches Read exactly: one
  /// miss per serve at capacity 0, one miss per residency-establishment
  /// (plus hits) otherwise, and the replacement policy sees the identical
  /// OnInsert/OnAccess history. An empty `waker` never parks: the read
  /// is Read's synchronous fetch (claiming or waiting out a staged page,
  /// with the io_wait trace span and `ctx` handed to storage), and the
  /// outcome still tells hit and miss apart.
  Status TryRead(PageId id, Page* out, QueryContext* ctx, const Waker& waker,
                 TryReadOutcome* outcome);

  /// TryRead handing out the page's image, as ReadImage does for Read.
  Status TryReadImage(PageId id, const PageCodec* codec, PageImage* out,
                      QueryContext* ctx, const Waker& waker,
                      TryReadOutcome* outcome);

  /// Settles the staging area: waits for in-flight demand fetches to
  /// complete, then drops the pages no reader claimed, waking any task
  /// still parked on them. A scheduled query stopped while parked can
  /// leave its page staged; a later read after this call fetches afresh.
  /// Called by the destructor and after each scheduled batch run.
  void SettleStaged();

  /// Writes `page` to `id` (cached, write-back). Pass-through writes
  /// directly when capacity is 0.
  Status Write(PageId id, const Page& page);

  /// Allocates a fresh page in the underlying storage.
  Result<PageId> Allocate();

  /// Drops any cached copy of `id` (discarding dirty data — the page is
  /// gone) and frees it in storage.
  Status Free(PageId id);

  /// Writes back all dirty frames; frames stay resident.
  Status Flush();

  /// Flush, then drop all frames (cold cache; used between experiment runs).
  Status FlushAndClear();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  size_t resident() const;

  /// Snapshot of the global counters (by value: they are atomics).
  BufferStats stats() const;
  void ResetStats();

  StorageManager* storage() const { return storage_; }

 private:
  struct Frame {
    Frame() = default;
    Frame(Page p, bool d) : page(std::move(p)), dirty(d) {}

    /// The raw bytes; empty (size 0) once a clean frame has an image.
    Page page;
    bool dirty = false;
    /// The page's image and the codec that built it; null until the
    /// first image read of this residency.
    PageImage image;
    const PageCodec* codec = nullptr;
  };

  /// What a read hands back: a copy of the page when `page` is set,
  /// otherwise the frame's image built by `codec`, into `image`.
  struct ReadSink {
    Page* page = nullptr;
    const PageCodec* codec = nullptr;
    PageImage* image = nullptr;
  };

  /// Serves `sink` from `frame`, building the frame's image if it has
  /// none yet (and then dropping a clean frame's raw bytes). Caller holds
  /// the frame's shard lock.
  Status Deliver(Frame& frame, const ReadSink& sink);
  /// Serves `sink` from a page read at capacity 0, which no frame keeps.
  Status DeliverPassThrough(Page page, const ReadSink& sink);

  /// The synchronous read: a miss fetches under the shard lock. Reports
  /// a hit in `*outcome` (never `parked`).
  Status ReadInto(PageId id, QueryContext* ctx, const ReadSink& sink,
                  TryReadOutcome* outcome);
  Status TryReadInto(PageId id, QueryContext* ctx, const Waker& waker,
                     TryReadOutcome* outcome, const ReadSink& sink);

  struct Shard {
    std::mutex mu;
    std::unordered_map<PageId, Frame> frames;
    std::unique_ptr<ReplacementPolicy> policy;
    size_t capacity = 0;
  };

  /// One demand fetch's life in the staging area: in flight (!ready),
  /// then staged (ready: the page, or the error the fetch failed with,
  /// awaiting its first claimer), then gone. `abandoned` marks an
  /// in-flight entry whose result is unwanted (Free / FlushAndClear); its
  /// completion is dropped. `waiters` are parked tasks, fired (outside the
  /// staging lock) when the entry becomes ready or is erased.
  struct StagedRead {
    bool ready = false;
    bool abandoned = false;
    Status status;
    Page page;
    std::vector<Waker> waiters;
  };

  /// The staging area (see the file comment for its invariant): separate
  /// from the frame table so the replacement policy sees only claims.
  struct StagingArea {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<PageId, StagedRead> entries;
    size_t inflight = 0;
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  /// Ensures space in `shard` for one more frame, evicting (with
  /// write-back) if full. Caller holds shard.mu.
  Status EvictIfFull(Shard& shard);

  /// Synchronous-miss hook: claims `id` from the staging area (waiting
  /// out an in-flight fetch) into `*out`. False when the page is not
  /// there or its fetch failed — the caller then reads storage itself.
  bool ClaimStaged(PageId id, Page* out);

  /// Async-read completion (runs on I/O threads; takes only staging mu).
  void OnFetchComplete(AsyncPageRead done);

  /// Creates an in-flight entry for `id` with `waker` parked on it.
  /// Caller holds staging mu and has verified no entry exists; the fetch
  /// itself must be issued after *all* locks are released (IssueFetch)
  /// because a kSync-backend completion runs inline and takes staging mu.
  void StartFetchLocked(PageId id, const Waker& waker);
  void IssueFetch(PageId id);

  /// Tells this buffer's pages apart from another buffer's in a query's
  /// page accounting (QueryContext::OnPageRead). A query never outlives
  /// the buffers it reads, so the address is unique for its lifetime.
  uint64_t BufferKey() const { return reinterpret_cast<uintptr_t>(this); }

  void CountHit();
  void CountMiss();

  StorageManager* storage_;
  size_t capacity_;
  /// unique_ptr: Shard holds a mutex and cannot move.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};

  StagingArea staging_;
  /// Set by the first demand fetch; until then the synchronous miss path
  /// skips the staging area (one relaxed load), so a buffer no scheduled
  /// query reads never takes the staging lock.
  std::atomic<bool> staging_used_{false};
};

}  // namespace kcpq

#endif  // KCPQ_BUFFER_BUFFER_MANAGER_H_
