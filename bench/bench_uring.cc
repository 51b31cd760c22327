// Native io_uring completion loop benchmark: batch throughput of the
// resumable executor over a real on-disk FileStorageManager, pool loop vs
// native ring (docs/io.md, "Native completion event loop").
//
// Not a figure of the paper — this harness measures the storage
// completion path layered under the reproduction. The same batch of HEAP
// K-CPQ queries (mixed K, zero-capacity buffers so every node read is a
// real file read) runs once per backend over cold caches:
//
//   pool    --io-backend=pool: every miss is dispatched as a task to the
//           shared IoThreadPool; each page pays a queue handoff, a worker
//           wake-up, and a pread on a pool thread.
//   uring   --io-backend=uring: misses are submitted as SQEs into the
//           persistent ring from the scheduler worker itself; a single
//           reaper drains CQE batches and wakes parked tasks directly.
//
// Both runs must produce bit-identical pairs and identical per-query
// disk-access counts — the speedup comes from cheaper submission and
// batched completion, never from different work. The page cache is
// dropped (POSIX_FADV_DONTNEED, repeated until mincore sees no page of
// either file resident) before each run so both backends read from the
// device; the JSON records the resident share each cold run started at.
//
// A fourth, fully-buffered run measures the batch's compute floor — the
// query work no completion path can touch — and the harness reports both
// the end-to-end speedup and the floor-subtracted I/O-path speedup. On a
// host with few cores the queries' own compute shares the cores with the
// I/O path, so the end-to-end ratio is Amdahl-capped at pool/floor; the
// I/O-path ratio is the honest measure of the completion path itself.
//
// Expectation: >= 1.5x I/O-path speedup for uring (the acceptance bar;
// set URING_MIN_SPEEDUP to gate the exit status on it). Skips cleanly —
// exit 0 with a visible reason — when the kernel refuses rings.
//
// Results also land in BENCH_uring.json for machine consumption.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"
#include "storage/file_storage.h"
#include "storage/uring_ring.h"

namespace kcpq {
namespace bench {
namespace {

constexpr PageId kMetaPage = 0;
constexpr size_t kTreeSize = 30000;
constexpr size_t kShards = 64;
constexpr size_t kQueries = 128;
constexpr size_t kWorkers = 4;
constexpr size_t kMaxInflight = 128;

// The paper's zero-buffer setting: every node read is a real file read,
// so per-query counts cannot depend on how queries interleave.
constexpr size_t kBufferPages = 0;

/// A real on-disk tree in a temp file, reopened cold for each run.
struct FileTree {
  std::string path;
  std::unique_ptr<FileStorageManager> storage;

  FileTree() = default;
  FileTree(FileTree&& other) noexcept
      : path(std::move(other.path)), storage(std::move(other.storage)) {
    other.path.clear();
  }
  FileTree& operator=(FileTree&&) = delete;

  ~FileTree() {
    storage.reset();
    if (!path.empty()) ::unlink(path.c_str());
  }
};

FileTree BuildFileTree(size_t n, uint64_t seed) {
  FileTree ft;
  char tmpl[] = "/tmp/kcpq_bench_uring_XXXXXX";
  const int fd = ::mkstemp(tmpl);
  KCPQ_CHECK_OK(fd >= 0 ? Status::OK() : Status::IoError("mkstemp"));
  ::close(fd);
  ft.path = tmpl;
  auto created = FileStorageManager::Create(ft.path);
  KCPQ_CHECK_OK(created.status());
  ft.storage = std::move(created).value();
  {
    BufferManager buffer(ft.storage.get(), 0);
    auto tree = RStarTree::Create(&buffer);
    KCPQ_CHECK_OK(tree.status());
    const std::vector<Point> points =
        GenerateUniform(n, UnitWorkspace(), seed);
    for (size_t i = 0; i < points.size(); ++i) {
      KCPQ_CHECK_OK(tree.value()->Insert(points[i], i));
    }
    KCPQ_CHECK_OK(tree.value()->Flush());
    KCPQ_CHECK_OK(
        tree.value()->meta_page() == kMetaPage
            ? Status::OK()
            : Status::Internal("meta page landed off page 0"));
  }
  KCPQ_CHECK_OK(ft.storage->Sync());
  return ft;
}

/// OS pages of a file, and how many of them the page cache holds.
struct Residency {
  size_t resident = 0;
  size_t pages = 0;
};

/// Bounded eviction attempts per file (1 ms apart).
constexpr int kEvictTries = 1000;

/// Evicts the file's pages so the next run reads from the device, not the
/// page cache — the backends race on real completions. One fsync plus
/// POSIX_FADV_DONTNEED is not enough: DONTNEED skips pages under I/O (such
/// as readahead still in flight), so the eviction repeats until mincore
/// shows no page of the file resident, at most kEvictTries times. Returns
/// what mincore saw last: zero resident pages for a truly cold file.
Residency DropCaches(const FileTree& ft) {
  Residency r;
  const int fd = ::open(ft.path.c_str(), O_RDONLY);
  KCPQ_CHECK_OK(fd >= 0 ? Status::OK() : Status::IoError("open " + ft.path));
  ::fsync(fd);
  struct stat st {};
  KCPQ_CHECK_OK(::fstat(fd, &st) == 0 ? Status::OK()
                                      : Status::IoError("fstat " + ft.path));
  const size_t bytes = static_cast<size_t>(st.st_size);
  const size_t os_page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  r.pages = (bytes + os_page - 1) / os_page;
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  KCPQ_CHECK_OK(map != MAP_FAILED ? Status::OK()
                                  : Status::IoError("mmap " + ft.path));
  std::vector<unsigned char> in_core(r.pages);
  for (int attempt = 0; attempt < kEvictTries; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    KCPQ_CHECK_OK(::mincore(map, bytes, in_core.data()) == 0
                      ? Status::OK()
                      : Status::IoError("mincore " + ft.path));
    r.resident = static_cast<size_t>(
        std::count_if(in_core.begin(), in_core.end(),
                      [](unsigned char c) { return (c & 1) != 0; }));
    if (r.resident == 0) break;
  }
  ::munmap(map, bytes);
  ::close(fd);
  return r;
}

std::vector<BatchQuery> MakeBatch() {
  std::vector<BatchQuery> batch(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    batch[i].kind = BatchQueryKind::kClosestPairs;
    batch[i].options.algorithm = CpqAlgorithm::kHeap;
    batch[i].options.k = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 10 : 100;
  }
  return batch;
}

struct BatchOutcome {
  std::vector<BatchQueryResult> results;
  double makespan = 0.0;
  uint64_t disk_accesses = 0;
  IoEventLoopStats uring;  // zeroes for the pool run
  /// Share of both files' OS pages still cached when the run started.
  double resident_share = 0.0;
};

BatchOutcome RunBatch(FileTree& p, FileTree& q, IoBackend backend,
                      size_t buffer_pages = kBufferPages) {
  const Residency rp = DropCaches(p);
  const Residency rq = DropCaches(q);
  const double resident_share =
      static_cast<double>(rp.resident + rq.resident) /
      static_cast<double>(std::max<size_t>(rp.pages + rq.pages, 1));
  if (backend == IoBackend::kUring) {
    FileStorageManager::UringOptions uopt;
    uopt.sq_depth = static_cast<unsigned>(kMaxInflight);
    p.storage->ConfigureUring(uopt);
    q.storage->ConfigureUring(uopt);
  }
  KCPQ_CHECK_OK(p.storage->SetIoBackend(backend));
  KCPQ_CHECK_OK(q.storage->SetIoBackend(backend));

  BufferManager bp(p.storage.get(), buffer_pages, kShards,
                   [] { return MakeLruPolicy(); });
  BufferManager bq(q.storage.get(), buffer_pages, kShards,
                   [] { return MakeLruPolicy(); });
  auto tp = RStarTree::Open(&bp, kMetaPage);
  auto tq = RStarTree::Open(&bq, kMetaPage);
  KCPQ_CHECK_OK(tp.status());
  KCPQ_CHECK_OK(tq.status());

  const std::vector<BatchQuery> batch = MakeBatch();
  BatchOptions options;
  options.threads = kWorkers;
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = kMaxInflight;
  BatchStats stats;
  Timer timer;
  BatchOutcome out;
  out.resident_share = resident_share;
  out.results =
      BatchKClosestPairs(*tp.value(), *tq.value(), batch, options, &stats);
  out.makespan = timer.ElapsedSeconds();
  for (const BatchQueryResult& r : out.results) {
    KCPQ_CHECK_OK(r.status);
    out.disk_accesses += r.stats.disk_accesses();
  }
  if (backend == IoBackend::kUring) {
    const IoEventLoopStats sp = p.storage->UringStats();
    const IoEventLoopStats sq = q.storage->UringStats();
    out.uring.batches_submitted = sp.batches_submitted + sq.batches_submitted;
    out.uring.reads_submitted = sp.reads_submitted + sq.reads_submitted;
    out.uring.cqe_wakes = sp.cqe_wakes + sq.cqe_wakes;
    out.uring.cqes_reaped = sp.cqes_reaped + sq.cqes_reaped;
    out.uring.sq_full_stalls = sp.sq_full_stalls + sq.sq_full_stalls;
    out.uring.fixed_buffer_reads =
        sp.fixed_buffer_reads + sq.fixed_buffer_reads;
    out.uring.deferred_batches = sp.deferred_batches + sq.deferred_batches;
  }
  return out;
}

// Bit-identical pairs and identical per-query disk accesses: the backends
// must do the same work against a different completion path, nothing else.
bool SameWork(const BatchOutcome& a, const BatchOutcome& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const BatchQueryResult& ra = a.results[i];
    const BatchQueryResult& rb = b.results[i];
    if (ra.stats.disk_accesses() != rb.stats.disk_accesses()) return false;
    if (ra.pairs.size() != rb.pairs.size()) return false;
    for (size_t j = 0; j < ra.pairs.size(); ++j) {
      if (ra.pairs[j].distance != rb.pairs[j].distance) return false;
      if (ra.pairs[j].p_id != rb.pairs[j].p_id) return false;
      if (ra.pairs[j].q_id != rb.pairs[j].q_id) return false;
    }
  }
  return true;
}

void Main() {
  PrintFigureHeader("Uring",
                    "file-backed batch throughput: IoThreadPool dispatch "
                    "vs native io_uring completion loop");
  if (!UringAvailable()) {
    std::printf("SKIP: io_uring unavailable on this kernel: %s\n",
                UringUnavailableReason());
    return;  // exit 0: absence of rings is an environment, not a failure
  }
  std::printf(
      "uniform %zu x %zu on disk, %zu HEAP queries (K in {1, 10, 100}), "
      "%zu workers, %zu in-flight, cold page cache, "
      "zero-capacity buffers, pool baseline at %s I/O threads\n",
      Scaled(kTreeSize), Scaled(kTreeSize), kQueries, kWorkers, kMaxInflight,
      std::getenv("KCPQ_IO_THREADS"));
  BenchJson json("uring");
  FileTree p = BuildFileTree(Scaled(kTreeSize), 71);
  FileTree q = BuildFileTree(Scaled(kTreeSize), 72);

  // Warm-up (faults in the binary and sizes the thread pools), then one
  // measured run per backend, pool first. A fully-buffered run measures
  // the batch's compute floor: the work no completion path can touch, so
  // the end-to-end ratio is Amdahl-capped at pool / floor — on few-core
  // hosts where the queries' own compute shares the cores with the I/O
  // path, the floor-subtracted ratio is the honest measure of the path
  // itself.
  RunBatch(p, q, IoBackend::kThreadPool);
  const BatchOutcome floor_run =
      RunBatch(p, q, IoBackend::kThreadPool, /*buffer_pages=*/8192);
  // Two interleaved runs per backend, best makespan kept: single runs on
  // shared hosts wobble by ~10% and interleaving cancels slow drift.
  const BatchOutcome pool_a = RunBatch(p, q, IoBackend::kThreadPool);
  const BatchOutcome uring_a = RunBatch(p, q, IoBackend::kUring);
  const BatchOutcome pool_b = RunBatch(p, q, IoBackend::kThreadPool);
  const BatchOutcome uring_b = RunBatch(p, q, IoBackend::kUring);
  const BatchOutcome& pool = pool_a.makespan <= pool_b.makespan ? pool_a
                                                                : pool_b;
  const BatchOutcome& uring = uring_a.makespan <= uring_b.makespan ? uring_a
                                                                   : uring_b;

  const double speedup = pool.makespan / uring.makespan;
  const double floor = floor_run.makespan;
  const double io_path_speedup =
      uring.makespan > floor && pool.makespan > floor
          ? (pool.makespan - floor) / (uring.makespan - floor)
          : speedup;
  Table table({"backend", "makespan s", "queries/s", "disk accesses"});
  const auto add = [&](const char* name, const BatchOutcome& o) {
    table.AddRow({name, Table::Num(o.makespan, 3),
                  Table::Num(static_cast<double>(kQueries) / o.makespan, 1),
                  Table::Count(static_cast<long long>(o.disk_accesses))});
  };
  add("pool", pool);
  add("uring", uring);
  table.Print(stdout);
  json.AddTable("backends", table);

  const bool identical = SameWork(pool_a, uring_a) &&
                         SameWork(pool_a, pool_b) && SameWork(pool_a, uring_b);
  const double cqes_per_wake =
      uring.uring.cqe_wakes > 0
          ? static_cast<double>(uring.uring.cqes_reaped) /
                static_cast<double>(uring.uring.cqe_wakes)
          : 0.0;
  std::printf("\nbatch throughput speedup (uring / pool): %.2fx end-to-end, "
              "%.2fx on the I/O path\n",
              speedup, io_path_speedup);
  std::printf(
      "compute floor (fully buffered): %.3f s — caps the end-to-end ratio "
      "at %.2fx on this host\n",
      floor, pool.makespan / floor);
  std::printf(
      "identical pairs and per-query disk accesses: %s (the completion "
      "path must not perturb results or the paper metric)\n",
      identical ? "yes" : "NO — BUG");
  std::printf(
      "uring: %llu reads in %llu submissions (%llu deferred to the "
      "reaper's enter), %.1f CQEs/wake, %llu sq-full stalls, %llu "
      "fixed-buffer reads\n",
      static_cast<unsigned long long>(uring.uring.reads_submitted),
      static_cast<unsigned long long>(uring.uring.batches_submitted),
      static_cast<unsigned long long>(uring.uring.deferred_batches),
      cqes_per_wake,
      static_cast<unsigned long long>(uring.uring.sq_full_stalls),
      static_cast<unsigned long long>(uring.uring.fixed_buffer_reads));
  std::printf(
      "Expectation: >= 1.5x on the I/O path with a cold cache and high "
      "--max-inflight (end-to-end needs cores for the queries' compute "
      "to overlap the ring).\n");
  json.AddScalar("speedup", speedup);
  json.AddScalar("io_path_speedup", io_path_speedup);
  json.AddScalar("compute_floor_s", floor);
  json.AddScalar("throughput_pool_qps",
                 static_cast<double>(kQueries) / pool.makespan);
  json.AddScalar("throughput_uring_qps",
                 static_cast<double>(kQueries) / uring.makespan);
  json.AddScalar("uring_reads", static_cast<double>(uring.uring.reads_submitted));
  json.AddScalar("uring_cqes_per_wake", cqes_per_wake);
  json.AddScalar("uring_sq_full_stalls",
                 static_cast<double>(uring.uring.sq_full_stalls));
  json.AddScalar("identical_results", identical ? 1.0 : 0.0);
  // The cold runs' starting page-cache residency: 0 means the eviction
  // above was verified complete, so every run read from the device.
  std::printf("page-cache share resident at the start of each cold run: "
              "pool %.4f / %.4f, uring %.4f / %.4f\n",
              pool_a.resident_share, pool_b.resident_share,
              uring_a.resident_share, uring_b.resident_share);
  json.AddScalar("cold_resident_share_pool_a", pool_a.resident_share);
  json.AddScalar("cold_resident_share_uring_a", uring_a.resident_share);
  json.AddScalar("cold_resident_share_pool_b", pool_b.resident_share);
  json.AddScalar("cold_resident_share_uring_b", uring_b.resident_share);
  json.Write();

  if (!identical) std::exit(1);
  // The gate compares the I/O-path ratio: the compute floor is workload,
  // not completion path, and on small CI hosts it swamps the end-to-end
  // number (see the Amdahl cap printed above).
  if (const char* gate = std::getenv("URING_MIN_SPEEDUP")) {
    const double min_speedup = std::atof(gate);
    if (io_path_speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: I/O-path speedup %.2fx below URING_MIN_SPEEDUP=%s\n",
                   io_path_speedup, gate);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() {
  // The pool baseline is sized for the in-flight target: a blocking
  // thread-per-read pool needs ~max_inflight/2 threads to sustain 128
  // outstanding reads against a device that actually blocks. That army
  // of blockable threads — and what it costs the host scheduler when
  // reads turn out to be page-cache hits — is precisely the design the
  // single-reaper ring replaces, so it is the fair baseline, not an
  // artifact. Override with KCPQ_IO_THREADS to measure other sizings
  // (must be set before the first async read constructs the shared
  // pool).
  setenv("KCPQ_IO_THREADS", "64", /*overwrite=*/0);
  kcpq::bench::Main();
}
