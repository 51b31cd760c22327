// Parallel batch query engine + plane-sweep leaf kernel benchmark.
//
// Not a figure of the paper — this harness measures the two engine
// additions layered on top of the reproduction:
//
//   Part A  Leaf kernel ablation. Uniform 100K x 100K, K = 100: the
//           plane-sweep kernel vs the nested loop, counting point distance
//           computations. The sweep must compute strictly fewer.
//
//   Part B  Batch throughput scaling. A batch of independent K-CPQ
//           queries over shared trees (sharded buffers) at 1/2/4/8
//           worker threads, in three modes:
//             resident  each buffer holds its whole tree, warmed by one
//                       untimed run: no misses, cost is pure CPU (the
//                       compute-scaling figure)
//             miss path in-memory pages behind 1 page per shard, so
//                       nearly every node read is a buffer miss: measures
//                       the miss path (shard locks, page copy, decode)
//             disk-sim  the miss-path buffer over a simulated disk whose
//                       every physical read sleeps
//                       (storage/latency_storage.h); batching wins by
//                       overlapping I/O waits, independent of core count
//
// Results also land in BENCH_parallel.json for machine consumption.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"

namespace kcpq {
namespace bench {
namespace {

// Part B shape: trees of kBatchTreeSize points each; a batch of queries
// (k and algorithm vary per query) runs against buffers of
// kBatchBufferPages per tree — far smaller than the trees, so physical
// reads persist across the batch and disk-sim latency stays on the
// critical path. The resident buffers hold kResidentPages, more than
// either tree has pages at REPRO_SCALE <= 1 (checked: the timed run must
// miss nothing). The in-memory modes run kCpuBatchQueries: with 32, the
// eight K = 1000 queries decide the makespan and 4 threads read slower
// than 1 even with the trees resident. Disk-sim keeps kDiskBatchQueries,
// since its every miss sleeps.
constexpr size_t kBatchTreeSize = 20000;
constexpr size_t kCpuBatchQueries = 256;
constexpr size_t kDiskBatchQueries = 32;
constexpr size_t kBatchBufferPages = 64;
constexpr size_t kResidentPages = 4096;
constexpr size_t kBatchShards = 64;
constexpr std::chrono::microseconds kDiskReadLatency{200};

void PartAKernelAblation(BenchJson* json) {
  std::printf("\nPart A: leaf kernel ablation — uniform %zu x %zu, K = 100\n",
              Scaled(100000), Scaled(100000));
  auto store_p = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 42);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 43);

  Table table({"algorithm", "kernel", "dist computations", "pairs skipped",
               "node pairs", "seconds"});
  uint64_t pdc_nested = 0;
  uint64_t pdc_sweep = 0;
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    for (const LeafKernel kernel :
         {LeafKernel::kNestedLoop, LeafKernel::kPlaneSweep}) {
      CpqOptions options;
      options.algorithm = algorithm;
      options.k = 100;
      options.leaf_kernel = kernel;
      // Counters come from the unified metrics registry (delta across the
      // run) rather than hand-copied CpqStats fields.
      const obs::MetricsSnapshot before = CaptureMetrics();
      const QueryOutcome outcome = RunCpq(*store_p, *store_q, options, 512);
      const obs::MetricsSnapshot delta =
          obs::MetricsSnapshot::Delta(before, CaptureMetrics());
      const uint64_t pdc =
          delta.CounterValue("kcpq_cpq_distance_computations_total");
      table.AddRow(
          {CpqAlgorithmName(algorithm), LeafKernelName(kernel),
           Table::Count(pdc),
           Table::Count(delta.CounterValue("kcpq_cpq_leaf_pairs_skipped_total")),
           Table::Count(delta.CounterValue("kcpq_cpq_node_pairs_total")),
           Table::Num(outcome.seconds, 3)});
      if (kernel == LeafKernel::kNestedLoop) {
        pdc_nested += pdc;
      } else {
        pdc_sweep += pdc;
      }
    }
  }
  table.Print(stdout);
  const double reduction =
      pdc_nested > 0 ? 1.0 - static_cast<double>(pdc_sweep) /
                                 static_cast<double>(pdc_nested)
                     : 0.0;
  std::printf("sweep computes %.1f%% fewer point distances than nested loop\n",
              reduction * 100);
  json->AddScalar("pdc_nested", static_cast<double>(pdc_nested));
  json->AddScalar("pdc_sweep", static_cast<double>(pdc_sweep));
  json->AddScalar("pdc_reduction", reduction);
  json->AddTable("kernel_ablation", table);
}

std::vector<BatchQuery> MakeBatch(size_t queries) {
  std::vector<BatchQuery> batch(queries);
  // Independent queries of unequal cost, as a CPQ server would see: k and
  // algorithm vary per query.
  constexpr size_t kKs[] = {1, 10, 100, 1000};
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = kKs[i % 4];
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  }
  return batch;
}

enum class Mode { kResident, kMissPath, kDiskSim };

// One timed batch run on fresh sharded views, `threads` workers. The
// resident mode warms its views with one untimed run first. Returns
// queries/second.
double RunBatch(TreeStore& p, TreeStore& q, size_t threads, Mode mode) {
  const std::vector<BatchQuery> batch = MakeBatch(
      mode == Mode::kDiskSim ? kDiskBatchQueries : kCpuBatchQueries);
  const size_t pages =
      mode == Mode::kResident ? kResidentPages : kBatchBufferPages;
  const std::chrono::microseconds latency =
      mode == Mode::kDiskSim ? kDiskReadLatency : std::chrono::microseconds(0);
  TreeStore::View vp = p.OpenParallelView(pages, kBatchShards, latency);
  TreeStore::View vq = q.OpenParallelView(pages, kBatchShards, latency);
  BatchOptions options;
  options.threads = threads;
  if (mode == Mode::kResident) {
    BatchKClosestPairs(*vp.tree, *vq.tree, batch, options);
  }
  BatchStats stats;
  Timer timer;
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(*vp.tree, *vq.tree, batch, options, &stats);
  const double seconds = timer.ElapsedSeconds();
  for (const BatchQueryResult& r : results) KCPQ_CHECK_OK(r.status);
  if (mode == Mode::kResident && stats.disk_accesses != 0) {
    std::fprintf(stderr, "resident run missed %llu pages\n",
                 static_cast<unsigned long long>(stats.disk_accesses));
    std::abort();
  }
  return static_cast<double>(batch.size()) / seconds;
}

void PartBThroughput(BenchJson* json) {
  std::printf(
      "\nPart B: batch throughput — %zu x %zu uniform trees; resident and "
      "miss path\nrun %zu queries, disk-sim %zu. resident: %zu pages/tree, "
      "warmed; miss path\nand disk-sim: %zu pages/tree (%zu shards, 1 page "
      "per shard), disk-sim read\nlatency %lld us\n",
      Scaled(kBatchTreeSize), Scaled(kBatchTreeSize), kCpuBatchQueries,
      kDiskBatchQueries, kResidentPages, kBatchBufferPages, kBatchShards,
      static_cast<long long>(kDiskReadLatency.count()));
  auto store_p = MakeStore(DataKind::kUniform, Scaled(kBatchTreeSize), 1.0, 7);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(kBatchTreeSize), 1.0, 8);

  Table table({"threads", "resident q/s", "resident speedup",
               "miss path (1 page/shard) q/s", "miss path speedup",
               "disk-sim q/s", "disk-sim speedup"});
  double base[3] = {0.0, 0.0, 0.0};
  for (const size_t threads : {1, 2, 4, 8}) {
    std::vector<std::string> row = {std::to_string(threads)};
    double speedup[3];
    for (const Mode mode : {Mode::kResident, Mode::kMissPath, Mode::kDiskSim}) {
      const size_t m = static_cast<size_t>(mode);
      const double qps = RunBatch(*store_p, *store_q, threads, mode);
      if (threads == 1) base[m] = qps;
      speedup[m] = qps / base[m];
      row.push_back(Table::Num(qps, 1));
      row.push_back(Table::Num(speedup[m], 2));
    }
    table.AddRow(row);
    if (threads == 8) {
      json->AddScalar("throughput_speedup_resident_8t", speedup[0]);
      json->AddScalar("throughput_speedup_miss_path_8t", speedup[1]);
      json->AddScalar("throughput_speedup_disk_8t", speedup[2]);
    }
  }
  table.Print(stdout);
  std::printf(
      "\nExpectation: disk-sim speedup at 8 threads >= 3x (overlapped I/O "
      "waits; holds even on a single core). Resident speedup tracks the "
      "machine's core count; the miss path is what does not scale yet.\n");
  json->AddTable("batch_throughput", table);
}

void Main() {
  PrintFigureHeader("Parallel engine",
                    "plane-sweep leaf kernel ablation + batch query "
                    "throughput scaling");
  BenchJson json("parallel");
  PartAKernelAblation(&json);
  PartBThroughput(&json);
  json.Write();
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { kcpq::bench::Main(); }
