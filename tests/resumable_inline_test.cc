// The inline drive mode of the query state machines (common/resumable.h):
// a task built with an empty waker reads synchronously, so its first
// Step() finishes the query without a single park. Every query family is
// driven that way over two stores whose reads are slow: a cold file on the
// io_uring backend (evicted, and checked with mincore, before every run)
// and a latency-injecting store behind a 6-page LRU. Each inline run must
// match the brute-force oracle and count exactly the disk accesses of the
// same query driven by a waker, which parks on its misses.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/resumable.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "cpq/resumable.h"
#include "cpq/resumable_semi.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "hs/resumable.h"
#include "rtree/rtree.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "tests/file_tree_fixture.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::FileTreeFixture;
using testing::MakeClusteredItems;
using testing::MakeUniformItems;

using Items = std::vector<std::pair<Point, uint64_t>>;

constexpr size_t kPoints = 400;
constexpr size_t kStreamPoints = 120;  // |P| x |Q| pairs are all emitted

/// A tree over MemoryStorage -> LatencyStorage -> 6-page LRU buffer.
class LatencyLruTree {
 public:
  LatencyLruTree()
      : latency_(&memory_, std::chrono::microseconds(20)),
        buffer_(&latency_, 6) {
    auto created = RStarTree::Create(&buffer_);
    KCPQ_CHECK_OK(created.status());
    tree_ = std::move(created).value();
  }

  Status Build(const Items& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  /// Empties the LRU, so every run starts from the same buffer state.
  void MakeCold() { KCPQ_CHECK_OK(buffer_.FlushAndClear()); }

  /// The store cannot serve a miss without waiting, so a query driven by
  /// a waker parks on every miss.
  static constexpr bool kMissesPark = true;

  RStarTree& tree() { return *tree_; }

 private:
  MemoryStorageManager memory_;
  LatencyStorageManager latency_;
  BufferManager buffer_;
  std::unique_ptr<RStarTree> tree_;
};

/// A zero-buffer file tree on the uring backend, evicted before each run.
class ColdUringFileTree {
 public:
  Status Build(const Items& items) {
    KCPQ_RETURN_IF_ERROR(fixture_.Build(items));
    return fixture_.storage().SetIoBackend(IoBackend::kUring);
  }

  void MakeCold() { fixture_.EvictPageCache(); }

  /// A no-wait read may still find a page that readahead brought back.
  static constexpr bool kMissesPark = false;

  RStarTree& tree() { return fixture_.tree(); }

 private:
  FileTreeFixture fixture_{0};
};

/// The two trees of a test plus their point sets (the oracle's input).
template <typename Tree>
struct Stores {
  Tree p, q;
  Items p_items, q_items;

  Status Build(size_t n, uint64_t seed) {
    p_items = MakeUniformItems(n, seed);
    q_items = MakeClusteredItems(n, seed + 1);
    KCPQ_RETURN_IF_ERROR(p.Build(p_items));
    return q.Build(q_items);
  }

  void MakeCold() {
    p.MakeCold();
    q.MakeCold();
  }

  /// The waker-driven twin parked, when the store guarantees it does.
  void ExpectParked(uint64_t io_parks, const std::string& label) const {
    if (Tree::kMissesPark) {
      EXPECT_GT(io_parks, 0u) << label;
    }
  }
};

/// Every pair distance between `p` and `q` (unordered pairs once, no
/// reflexive ones, when `self`), restricted to `rect` for kRangeClosest,
/// sorted closest-first (farthest-first for kFarthest), first `k` kept.
std::vector<double> BruteDistances(const Items& p, const Items& q, size_t k,
                                   QueryFamily family, const Rect& rect,
                                   bool self) {
  std::vector<double> all;
  for (const auto& [pp, pid] : p) {
    for (const auto& [qp, qid] : q) {
      if (self && pid >= qid) continue;
      if (family == QueryFamily::kRangeClosest &&
          (!rect.Contains(pp) || !rect.Contains(qp))) {
        continue;
      }
      all.push_back(Distance(pp, qp));
    }
  }
  if (family == QueryFamily::kFarthest) {
    std::sort(all.rbegin(), all.rend());
  } else {
    std::sort(all.begin(), all.end());
  }
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<double> DistancesOf(const std::vector<PairResult>& pairs) {
  std::vector<double> out;
  for (const PairResult& r : pairs) out.push_back(r.distance);
  return out;
}

void ExpectNear(const std::vector<double>& got, const std::vector<double>& want,
                const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << label << " rank " << i;
  }
}

struct CpqCase {
  std::string name;
  CpqAlgorithm algorithm;
  QueryFamily family;
  bool self;
};

std::vector<CpqCase> CpqCases() {
  return {
      {"HEAP", CpqAlgorithm::kHeap, QueryFamily::kClosest, false},
      {"STD", CpqAlgorithm::kSortedDistances, QueryFamily::kClosest, false},
      {"EXH", CpqAlgorithm::kExhaustive, QueryFamily::kClosest, false},
      {"SIM", CpqAlgorithm::kSimple, QueryFamily::kClosest, false},
      {"NAIVE", CpqAlgorithm::kNaive, QueryFamily::kClosest, false},
      {"self", CpqAlgorithm::kHeap, QueryFamily::kClosest, true},
      {"farthest", CpqAlgorithm::kHeap, QueryFamily::kFarthest, false},
      {"rect", CpqAlgorithm::kSortedDistances, QueryFamily::kRangeClosest,
       false},
  };
}

template <typename Tree>
void CheckCpq(Stores<Tree>& s) {
  Rect rect;
  rect.lo[0] = rect.lo[1] = 0.2;
  rect.hi[0] = rect.hi[1] = 0.7;
  for (const CpqCase& c : CpqCases()) {
    CpqOptions options;
    options.algorithm = c.algorithm;
    options.family = c.family;
    options.query_rect = rect;
    options.self_join = c.self;
    options.k = 10;
    RStarTree& tree_q = c.self ? s.p.tree() : s.q.tree();

    s.MakeCold();
    CpqStats inline_stats;
    ResumableCpqQuery inline_query(s.p.tree(), tree_q, options, &inline_stats,
                                   Waker());
    ASSERT_EQ(inline_query.Step(), ResumableTask::StepResult::kDone)
        << c.name;
    KCPQ_ASSERT_OK(inline_query.status());
    EXPECT_EQ(inline_stats.io_parks, 0u) << c.name;
    ExpectNear(DistancesOf(inline_query.TakeResults()),
               BruteDistances(s.p_items, c.self ? s.p_items : s.q_items,
                              options.k, c.family, rect, c.self),
               c.name);

    s.MakeCold();
    CpqStats scheduled_stats;
    InlineWakerGate gate;
    ResumableCpqQuery scheduled(s.p.tree(), tree_q, options, &scheduled_stats,
                                gate.waker());
    gate.RunToCompletion(scheduled);
    KCPQ_ASSERT_OK(scheduled.status());
    EXPECT_EQ(inline_stats.disk_accesses_p, scheduled_stats.disk_accesses_p)
        << c.name;
    EXPECT_EQ(inline_stats.disk_accesses_q, scheduled_stats.disk_accesses_q)
        << c.name;
    EXPECT_EQ(inline_stats.node_accesses, scheduled_stats.node_accesses)
        << c.name;
    EXPECT_GT(inline_stats.disk_accesses(), 0u) << c.name;
    s.ExpectParked(scheduled_stats.io_parks, c.name);
  }
}

template <typename Tree>
void CheckHs(Stores<Tree>& s) {
  for (const HsTraversal traversal :
       {HsTraversal::kBasic, HsTraversal::kEven, HsTraversal::kSimultaneous}) {
    const std::string name = HsTraversalName(traversal);
    HsOptions options;
    options.traversal = traversal;
    constexpr size_t kK = 10;

    s.MakeCold();
    HsStats inline_stats;
    ResumableHsQuery inline_query(s.p.tree(), s.q.tree(), kK, options,
                                  &inline_stats, Waker());
    ASSERT_EQ(inline_query.Step(), ResumableTask::StepResult::kDone) << name;
    KCPQ_ASSERT_OK(inline_query.status());
    EXPECT_EQ(inline_stats.io_parks, 0u) << name;
    ExpectNear(DistancesOf(inline_query.TakeResults()),
               DistancesOf(BruteForceKClosestPairs(s.p_items, s.q_items, kK)),
               name);

    s.MakeCold();
    HsStats scheduled_stats;
    InlineWakerGate gate;
    ResumableHsQuery scheduled(s.p.tree(), s.q.tree(), kK, options,
                               &scheduled_stats, gate.waker());
    gate.RunToCompletion(scheduled);
    KCPQ_ASSERT_OK(scheduled.status());
    EXPECT_EQ(inline_stats.disk_accesses_p, scheduled_stats.disk_accesses_p)
        << name;
    EXPECT_EQ(inline_stats.disk_accesses_q, scheduled_stats.disk_accesses_q)
        << name;
    EXPECT_EQ(inline_stats.node_accesses, scheduled_stats.node_accesses)
        << name;
    EXPECT_GT(inline_stats.disk_accesses(), 0u) << name;
    s.ExpectParked(scheduled_stats.io_parks, name);
  }
}

template <typename Tree>
void CheckSemi(Stores<Tree>& s) {
  s.MakeCold();
  CpqStats inline_stats;
  ResumableSemiQuery inline_query(s.p.tree(), s.q.tree(), &inline_stats,
                                  QueryControl(), nullptr, Waker());
  ASSERT_EQ(inline_query.Step(), ResumableTask::StepResult::kDone);
  KCPQ_ASSERT_OK(inline_query.status());
  EXPECT_EQ(inline_stats.io_parks, 0u);
  ExpectNear(DistancesOf(inline_query.TakeResults()),
             DistancesOf(BruteForceSemiClosestPairs(s.p_items, s.q_items)),
             "semi");

  s.MakeCold();
  CpqStats scheduled_stats;
  InlineWakerGate gate;
  ResumableSemiQuery scheduled(s.p.tree(), s.q.tree(), &scheduled_stats,
                               QueryControl(), nullptr, gate.waker());
  gate.RunToCompletion(scheduled);
  KCPQ_ASSERT_OK(scheduled.status());
  EXPECT_EQ(inline_stats.disk_accesses_p, scheduled_stats.disk_accesses_p);
  EXPECT_EQ(inline_stats.disk_accesses_q, scheduled_stats.disk_accesses_q);
  EXPECT_EQ(inline_stats.node_accesses, scheduled_stats.node_accesses);
  EXPECT_GT(inline_stats.disk_accesses(), 0u);
  s.ExpectParked(scheduled_stats.io_parks, "semi");
}

/// The public incremental join drives itself inline: every Next() of a
/// full stream (all |P| x |Q| pairs) answers without an error, and the
/// stream counts the disk accesses of a scheduled top-|P||Q| join.
template <typename Tree>
void CheckJoinStream(Stores<Tree>& s) {
  s.MakeCold();
  IncrementalDistanceJoin join(s.p.tree(), s.q.tree());
  std::vector<PairResult> streamed;
  for (;;) {
    Result<std::optional<PairResult>> next = join.Next();
    KCPQ_ASSERT_OK(next.status());
    if (!next.value().has_value()) break;
    streamed.push_back(*next.value());
  }
  const size_t all = s.p_items.size() * s.q_items.size();
  EXPECT_EQ(join.stats().io_parks, 0u);
  ExpectNear(DistancesOf(streamed),
             DistancesOf(BruteForceKClosestPairs(s.p_items, s.q_items, all)),
             "stream");

  s.MakeCold();
  HsStats scheduled_stats;
  InlineWakerGate gate;
  ResumableHsQuery scheduled(s.p.tree(), s.q.tree(), all, HsOptions(),
                             &scheduled_stats, gate.waker());
  gate.RunToCompletion(scheduled);
  KCPQ_ASSERT_OK(scheduled.status());
  EXPECT_EQ(join.stats().disk_accesses_p, scheduled_stats.disk_accesses_p);
  EXPECT_EQ(join.stats().disk_accesses_q, scheduled_stats.disk_accesses_q);
  EXPECT_EQ(join.stats().node_accesses, scheduled_stats.node_accesses);
  EXPECT_GT(join.stats().disk_accesses(), 0u);
  s.ExpectParked(scheduled_stats.io_parks, "stream");
}

TEST(ResumableInline, CpqOnColdUringFile) {
  KCPQ_SKIP_WITHOUT_URING();
  Stores<ColdUringFileTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 11));
  CheckCpq(s);
}

TEST(ResumableInline, CpqOnLatencyLru) {
  Stores<LatencyLruTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 12));
  CheckCpq(s);
}

TEST(ResumableInline, HsOnColdUringFile) {
  KCPQ_SKIP_WITHOUT_URING();
  Stores<ColdUringFileTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 13));
  CheckHs(s);
}

TEST(ResumableInline, HsOnLatencyLru) {
  Stores<LatencyLruTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 14));
  CheckHs(s);
}

TEST(ResumableInline, SemiOnColdUringFile) {
  KCPQ_SKIP_WITHOUT_URING();
  Stores<ColdUringFileTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 15));
  CheckSemi(s);
}

TEST(ResumableInline, SemiOnLatencyLru) {
  Stores<LatencyLruTree> s;
  KCPQ_ASSERT_OK(s.Build(kPoints, 16));
  CheckSemi(s);
}

TEST(ResumableInline, JoinStreamOnColdUringFile) {
  KCPQ_SKIP_WITHOUT_URING();
  Stores<ColdUringFileTree> s;
  KCPQ_ASSERT_OK(s.Build(kStreamPoints, 17));
  CheckJoinStream(s);
}

TEST(ResumableInline, JoinStreamOnLatencyLru) {
  Stores<LatencyLruTree> s;
  KCPQ_ASSERT_OK(s.Build(kStreamPoints, 18));
  CheckJoinStream(s);
}

}  // namespace
}  // namespace kcpq
