// Work-count golden for the ε-distance join and the multiway K-closest
// tuples query. Every case records the result count, a checksum over the
// result ids and distance bits, the engine's work counters and the paper's
// disk-access metric, at three buffer settings (none, a cold 6-page LRU,
// both trees resident and warm). A budget sweep adds the anytime
// certificate of a stopped query. The file freezes the traversal: a change
// that moves any node-pair visit, prune or buffer miss shows up here.
//
// Regenerate (only when a change means to move these numbers, and say so):
//   KCPQ_UPDATE_GOLDEN=1 ./join_counts_test

#include <bit>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpq/distance_join.h"
#include "cpq/multiway.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr size_t kPageSize = 512;  // small pages: trees three levels deep
constexpr int kSeeds = 10;
constexpr uint64_t kBudgets[] = {3, 10, 40, 160};

enum class Buffer { kNone, kLru6, kResident };

const char* BufferName(Buffer b) {
  switch (b) {
    case Buffer::kNone:
      return "b0";
    case Buffer::kLru6:
      return "lru6";
    case Buffer::kResident:
      return "resident";
  }
  return "?";
}

size_t BufferPages(Buffer b) {
  switch (b) {
    case Buffer::kNone:
      return 0;
    case Buffer::kLru6:
      return 6;
    case Buffer::kResident:
      return 4096;
  }
  return 0;
}

/// FNV-1a over 64-bit words.
class Checksum {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double d) { Add(std::bit_cast<uint64_t>(d)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string WorkCounts(const CpqStats& s) {
  return Fmt(
      " pairs=%llu gen=%llu pruned=%llu dist=%llu skipped=%llu nodes=%llu "
      "dp=%llu dq=%llu",
      static_cast<unsigned long long>(s.node_pairs_processed),
      static_cast<unsigned long long>(s.candidate_pairs_generated),
      static_cast<unsigned long long>(s.candidate_pairs_pruned),
      static_cast<unsigned long long>(s.point_distance_computations),
      static_cast<unsigned long long>(s.leaf_pairs_skipped),
      static_cast<unsigned long long>(s.node_accesses),
      static_cast<unsigned long long>(s.disk_accesses_p),
      static_cast<unsigned long long>(s.disk_accesses_q));
}

std::string Certificate(const QueryQuality& q) {
  return Fmt(" stop=%s glb=%.17g exact=%d missing=%llu",
             StopCauseName(q.stop_cause), q.guaranteed_lower_bound,
             q.is_exact ? 1 : 0,
             static_cast<unsigned long long>(q.missing_pair_bound));
}

/// The seed's join: sizes, ε, metric and height strategy all vary.
struct JoinCase {
  explicit JoinCase(int seed)
      : np(300 + 50 * static_cast<size_t>(seed % 4)),
        nq(300 + 60 * static_cast<size_t>(seed % 3)),
        epsilon(0.02 + 0.01 * (seed % 3)) {
    options.metric = seed % 3 == 2 ? Metric::kL1 : Metric::kL2;
    options.height_strategy = seed % 2 == 1 ? HeightStrategy::kFixAtLeaves
                                            : HeightStrategy::kFixAtRoot;
  }
  size_t np, nq;
  double epsilon;
  DistanceJoinOptions options;
};

/// Runs one join from the buffer state the setting prescribes and renders
/// its line (without the label).
std::string RunJoin(TreeFixture* fp, TreeFixture* fq, Buffer buffer,
                    double epsilon, const DistanceJoinOptions& options) {
  const bool self = fp == fq;
  const RStarTree& tree_q = self ? fp->tree() : fq->tree();
  if (buffer == Buffer::kLru6) {
    KCPQ_CHECK_OK(fp->buffer().FlushAndClear());
    if (!self) KCPQ_CHECK_OK(fq->buffer().FlushAndClear());
  } else if (buffer == Buffer::kResident) {
    // One warming run, so every page either tree reads is resident.
    KCPQ_CHECK_OK(
        DistanceRangeJoin(fp->tree(), tree_q, epsilon, options).status());
  }
  CpqStats stats;
  Result<std::vector<PairResult>> r =
      DistanceRangeJoin(fp->tree(), tree_q, epsilon, options, &stats);
  if (!r.ok()) return " error=" + r.status().ToString();
  Checksum sum;
  for (const PairResult& pr : r.value()) {
    sum.Add(pr.p_id);
    sum.Add(pr.q_id);
    sum.Add(pr.distance);
  }
  std::string line = Fmt(" results=%zu sum=%016llx", r.value().size(),
                         static_cast<unsigned long long>(sum.value()));
  line += WorkCounts(stats);
  if (!options.control.IsUnlimited()) line += Certificate(stats.quality);
  return line;
}

void AppendJoinCases(std::string* report) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const JoinCase c(seed);
    const auto p_items = MakeUniformItems(c.np, 5000 + seed);
    const auto q_items = MakeClusteredItems(c.nq, 6000 + seed);
    for (const Buffer buffer :
         {Buffer::kNone, Buffer::kLru6, Buffer::kResident}) {
      TreeFixture fp(BufferPages(buffer), kPageSize);
      TreeFixture fq(BufferPages(buffer), kPageSize);
      KCPQ_CHECK_OK(fp.Build(p_items));
      KCPQ_CHECK_OK(fq.Build(q_items));
      for (const bool self : {false, true}) {
        for (const LeafKernel kernel :
             {LeafKernel::kPlaneSweep, LeafKernel::kNestedLoop}) {
          DistanceJoinOptions options = c.options;
          options.self_join = self;
          options.leaf_kernel = kernel;
          *report += Fmt("join seed=%d buf=%s %s %s", seed, BufferName(buffer),
                         self ? "self" : "cross",
                         kernel == LeafKernel::kPlaneSweep ? "sweep"
                                                           : "nested");
          *report += RunJoin(&fp, self ? &fp : &fq, buffer, c.epsilon, options);
          *report += "\n";
        }
      }
      if (buffer != Buffer::kLru6) continue;
      for (const bool self : {false, true}) {
        for (const uint64_t budget : kBudgets) {
          DistanceJoinOptions options = c.options;
          options.self_join = self;
          options.control.max_node_accesses = budget;
          *report += Fmt("join-budget seed=%d buf=%s %s budget=%llu", seed,
                         BufferName(buffer), self ? "self" : "cross",
                         static_cast<unsigned long long>(budget));
          *report += RunJoin(&fp, self ? &fp : &fq, buffer, c.epsilon, options);
          *report += "\n";
        }
      }
    }
    // P left of x = 0.5, Q right of it: frontier pairs far from the seam
    // have MINMINDIST > 0, so a stop certifies a positive bound, and one
    // whose whole frontier lies beyond ε is exact.
    Rect left, right;
    left.lo[0] = 0.0, left.lo[1] = 0.0, left.hi[0] = 0.5, left.hi[1] = 1.0;
    right.lo[0] = 0.5, right.lo[1] = 0.0, right.hi[0] = 1.0, right.hi[1] = 1.0;
    TreeFixture fp(BufferPages(Buffer::kLru6), kPageSize);
    TreeFixture fq(BufferPages(Buffer::kLru6), kPageSize);
    KCPQ_CHECK_OK(fp.Build(MakeUniformItems(c.np, 5000 + seed, left)));
    KCPQ_CHECK_OK(fq.Build(MakeClusteredItems(c.nq, 6000 + seed, right)));
    // A pre-cancelled join reads nothing and certifies nothing.
    {
      CancellationSource cancelled;
      cancelled.Cancel();
      DistanceJoinOptions options = c.options;
      options.control.cancel = cancelled.token();
      *report += Fmt("join-cancelled seed=%d buf=lru6 split", seed);
      *report += RunJoin(&fp, &fq, Buffer::kLru6, c.epsilon, options);
      *report += "\n";
    }
    for (const uint64_t budget : kBudgets) {
      DistanceJoinOptions options = c.options;
      options.control.max_node_accesses = budget;
      *report += Fmt("join-budget seed=%d buf=lru6 split budget=%llu", seed,
                     static_cast<unsigned long long>(budget));
      *report += RunJoin(&fp, &fq, Buffer::kLru6, c.epsilon, options);
      *report += "\n";
    }
  }
}

struct Graph {
  const char* name;
  std::vector<MultiwayEdge> edges;
};

std::string RunMultiway(const std::vector<const RStarTree*>& trees,
                        const std::vector<TreeFixture*>& fixtures,
                        const std::vector<MultiwayEdge>& edges,
                        const QueryControl& control) {
  for (TreeFixture* f : fixtures) KCPQ_CHECK_OK(f->buffer().FlushAndClear());
  MultiwayOptions options;
  options.k = 5;
  options.control = control;
  CpqStats stats;
  Result<std::vector<TupleResult>> r =
      MultiwayKClosestTuples(trees, edges, options, &stats);
  if (!r.ok()) return " error=" + r.status().ToString();
  Checksum sum;
  for (const TupleResult& t : r.value()) {
    for (const uint64_t id : t.ids) sum.Add(id);
    sum.Add(t.aggregate_distance);
  }
  std::string line = Fmt(" results=%zu sum=%016llx", r.value().size(),
                         static_cast<unsigned long long>(sum.value()));
  line += WorkCounts(stats);
  if (!control.IsUnlimited()) line += Certificate(stats.quality);
  return line;
}

void AppendMultiwayCases(std::string* report) {
  const std::vector<Graph> graphs = {
      {"chain", {{0, 1}, {1, 2}}},
      {"clique", {{0, 1}, {0, 2}, {1, 2}}},
      {"star", {{0, 1}, {0, 2}}},
  };
  for (const Buffer buffer : {Buffer::kNone, Buffer::kLru6}) {
    std::vector<std::unique_ptr<TreeFixture>> owned;
    std::vector<TreeFixture*> fixtures;
    std::vector<const RStarTree*> trees;
    for (int i = 0; i < 3; ++i) {
      owned.push_back(
          std::make_unique<TreeFixture>(BufferPages(buffer), kPageSize));
      KCPQ_CHECK_OK(owned.back()->Build(
          i == 1 ? MakeClusteredItems(110, 7100 + i)
                 : MakeUniformItems(90 + 10 * i, 7100 + i)));
      fixtures.push_back(owned.back().get());
      trees.push_back(&owned.back()->tree());
    }
    for (const Graph& g : graphs) {
      *report += Fmt("multiway graph=%s buf=%s", g.name, BufferName(buffer));
      *report += RunMultiway(trees, fixtures, g.edges, {});
      *report += "\n";
    }
    // One tree in two slots: both slots read through one buffer.
    *report += Fmt("multiway graph=chain-shared buf=%s", BufferName(buffer));
    *report += RunMultiway({trees[0], trees[1], trees[0]},
                           {fixtures[0], fixtures[1]}, graphs[0].edges, {});
    *report += "\n";
    if (buffer != Buffer::kNone) continue;
    for (const Graph& g : graphs) {
      for (const uint64_t budget : kBudgets) {
        *report += Fmt("multiway-budget graph=%s buf=%s budget=%llu", g.name,
                       BufferName(buffer),
                       static_cast<unsigned long long>(budget));
        QueryControl control;
        control.max_node_accesses = budget;
        *report += RunMultiway(trees, fixtures, g.edges, control);
        *report += "\n";
      }
    }
    CancellationSource cancelled;
    cancelled.Cancel();
    QueryControl control;
    control.cancel = cancelled.token();
    *report += Fmt("multiway-cancelled graph=chain buf=%s", BufferName(buffer));
    *report += RunMultiway(trees, fixtures, graphs[0].edges, control);
    *report += "\n";
  }
}

TEST(JoinCountsGolden, MatchesCommittedCounts) {
  std::string report;
  AppendJoinCases(&report);
  AppendMultiwayCases(&report);

  const std::string path =
      std::string(KCPQ_TEST_GOLDEN_DIR) + "/join_counts.txt";
  if (std::getenv("KCPQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << report;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with KCPQ_UPDATE_GOLDEN=1)";
  std::stringstream want_stream;
  want_stream << in.rdbuf();
  // Line by line, so a failure names the case that moved.
  std::istringstream got_lines(report), want_lines(want_stream.str());
  std::string got, want;
  size_t line = 0;
  while (true) {
    const bool more_got = static_cast<bool>(std::getline(got_lines, got));
    const bool more_want = static_cast<bool>(std::getline(want_lines, want));
    ++line;
    if (!more_got && !more_want) break;
    ASSERT_EQ(more_got, more_want) << "line count differs at line " << line;
    EXPECT_EQ(got, want) << "line " << line;
  }
}

}  // namespace
}  // namespace kcpq
