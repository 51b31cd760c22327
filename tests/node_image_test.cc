// Decoded node images (rtree/node.h) cached on buffer frames
// (buffer/buffer_manager.h): the decode itself, the one-image-per-residency
// sharing, the four ways an image is dropped (Write, Free, eviction,
// FlushAndClear), and a 50-seed differential showing that queries read
// through images give the brute-force oracle's answers with the same
// counters at every buffer size — including the exact LRU hit/miss
// history — while R* inserts and erases rewrite the trees in between.

#include <algorithm>
#include <cstring>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::RandomRect;
using testing::TreeFixture;

using Items = std::vector<std::pair<Point, uint64_t>>;

NodeImagePtr Decode(const Node& node) {
  Page page(kDefaultPageSize);
  KCPQ_CHECK_OK(SerializeNode(node, &page));
  NodeImagePtr image;
  KCPQ_CHECK_OK(NodeImage::Decode(page, &image));
  return image;
}

TEST(NodeImageTest, DecodeKeepsEntriesMbrAndSortOrders) {
  Xoshiro256pp rng(7);
  Node node;
  node.level = 1;
  for (uint64_t i = 0; i < 21; ++i) {
    Rect r = RandomRect(rng, 0.1);
    // Repeated lower coordinates exercise the unstable tie order.
    if (i % 4 == 0) {
      r.lo[0] = 0.5;
      r.hi[0] = std::max(r.hi[0], 0.5);
    }
    node.entries.push_back(Entry{r, 100 + i});
  }
  const NodeImagePtr image = Decode(node);
  ASSERT_EQ(image->level(), 1);
  ASSERT_EQ(image->entries().size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(image->entries()[i].rect, node.entries[i].rect);
    EXPECT_EQ(image->entries()[i].id, node.entries[i].id);
  }
  EXPECT_EQ(image->mbr(), node.ComputeMbr());
  for (int axis = 0; axis < kDims; ++axis) {
    // The permutation equals what std::sort of the entries themselves
    // produces, ties included.
    std::vector<Entry> sorted = node.entries;
    std::sort(sorted.begin(), sorted.end(),
              [axis](const Entry& a, const Entry& b) {
                return a.rect.lo[axis] < b.rect.lo[axis];
              });
    ASSERT_EQ(image->order(axis).size(), sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(image->entries()[image->order(axis)[i]].id, sorted[i].id)
          << "axis " << axis << " rank " << i;
    }
  }
}

TEST(NodeImageTest, EmptyNodeHasEmptyMbr) {
  Node node;
  const NodeImagePtr image = Decode(node);
  EXPECT_TRUE(image->IsLeaf());
  EXPECT_TRUE(image->entries().empty());
  EXPECT_TRUE(image->mbr().IsEmpty());
}

TEST(NodeImageTest, ShortPageIsCorruption) {
  NodeImagePtr image;
  EXPECT_EQ(NodeImage::Decode(Page(8), &image).code(),
            StatusCode::kCorruption);
  Node node;
  EXPECT_EQ(DeserializeNode(Page(8), &node).code(), StatusCode::kCorruption);
}

TEST(NodeImageTest, HitsShareOneImagePerResidency) {
  TreeFixture fx(/*buffer_pages=*/64);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(500, 11)));
  KCPQ_ASSERT_OK(fx.buffer().FlushAndClear());
  const BufferStats before = fx.buffer().stats();
  NodeImagePtr first, second;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &first));
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &second));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(fx.buffer().stats().misses - before.misses, 1u);
  EXPECT_EQ(fx.buffer().stats().hits - before.hits, 1u);
}

TEST(NodeImageTest, CapacityZeroDecodesEveryRead) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(500, 12)));
  const BufferStats before = fx.buffer().stats();
  NodeImagePtr first, second;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &first));
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &second));
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(fx.buffer().stats().misses - before.misses, 2u);
}

TEST(NodeImageTest, RawReadOfAnImageFrameReturnsTheStoredBytes) {
  // A clean frame keeps only its image; Read re-encodes the bytes.
  TreeFixture fx(/*buffer_pages=*/64);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(500, 19)));
  KCPQ_ASSERT_OK(fx.buffer().FlushAndClear());
  NodeImagePtr root;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &root));
  std::vector<std::pair<PageId, int>> pages = {
      {fx.tree().root_page(), root->level()}};
  for (const Entry& e : root->entries()) {
    pages.emplace_back(e.id, root->level() - 1);
  }
  for (const auto& [id, level] : pages) {
    NodeImagePtr image;
    KCPQ_ASSERT_OK(fx.tree().ReadNode(id, level, &image));
    Page cached, stored;
    KCPQ_ASSERT_OK(fx.buffer().Read(id, &cached));
    KCPQ_ASSERT_OK(fx.storage().ReadPage(id, &stored));
    ASSERT_EQ(cached.size(), stored.size());
    EXPECT_EQ(std::memcmp(cached.data(), stored.data(), cached.size()), 0)
        << "page " << id;
  }
}

// Rewrites page `id` of `fx`'s storage behind the buffer's back with a
// one-entry leaf whose record id is `marker`.
void OverwriteInStorage(TreeFixture& fx, PageId id, uint64_t marker) {
  Node leaf;
  leaf.entries.push_back(Entry::ForPoint(Point{{0.25, 0.75}}, marker));
  Page page(fx.storage().page_size());
  KCPQ_CHECK_OK(SerializeNode(leaf, &page));
  KCPQ_CHECK_OK(fx.storage().WritePage(id, page));
}

// The first record id of the leaf at page `id`.
uint64_t FirstId(TreeFixture& fx, PageId id) {
  NodeImagePtr image;
  KCPQ_CHECK_OK(fx.tree().ReadNode(id, /*level=*/0, &image));
  return image->entries().empty() ? 0 : image->entries()[0].id;
}

TEST(NodeImageStaleTest, WriteDropsTheImage) {
  TreeFixture fx(/*buffer_pages=*/64);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(10, 13)));  // one leaf: the root
  const PageId root = fx.tree().root_page();
  NodeImagePtr before;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(root, 0, &before));
  KCPQ_ASSERT_OK(fx.tree().Insert(Point{{0.5, 0.5}}, 999));
  NodeImagePtr after;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(root, 0, &after));
  EXPECT_EQ(after->entries().size(), before->entries().size() + 1);
  // A reader still holding the old image keeps the old, immutable node.
  EXPECT_EQ(before->entries().size(), 10u);
}

TEST(NodeImageStaleTest, FreeDropsTheImage) {
  TreeFixture fx(/*buffer_pages=*/64);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(10, 14)));
  const Result<PageId> page = fx.buffer().Allocate();
  KCPQ_ASSERT_OK(page.status());
  Node leaf;
  leaf.entries.push_back(Entry::ForPoint(Point{{0.1, 0.1}}, 1));
  Page raw(fx.storage().page_size());
  KCPQ_ASSERT_OK(SerializeNode(leaf, &raw));
  KCPQ_ASSERT_OK(fx.buffer().Write(page.value(), raw));
  EXPECT_EQ(FirstId(fx, page.value()), 1u);
  KCPQ_ASSERT_OK(fx.buffer().Free(page.value()));
  // The memory store reuses the freed id: the new owner's node must show.
  const Result<PageId> reused = fx.buffer().Allocate();
  KCPQ_ASSERT_OK(reused.status());
  ASSERT_EQ(reused.value(), page.value());
  OverwriteInStorage(fx, reused.value(), 2);
  EXPECT_EQ(FirstId(fx, reused.value()), 2u);
}

TEST(NodeImageStaleTest, EvictionDropsTheImage) {
  TreeFixture fx(/*buffer_pages=*/1);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(200, 15)));
  NodeImagePtr root;
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &root));
  ASSERT_FALSE(root->IsLeaf());
  const PageId child = root->entries()[0].id;
  const uint64_t original = FirstId(fx, child);
  // Reading the root again evicts the child's frame (capacity 1).
  KCPQ_ASSERT_OK(fx.tree().ReadNode(fx.tree().root_page(), fx.tree().height() - 1, &root));
  OverwriteInStorage(fx, child, original + 1);
  EXPECT_EQ(FirstId(fx, child), original + 1);
}

TEST(NodeImageStaleTest, FlushAndClearDropsTheImage) {
  TreeFixture fx(/*buffer_pages=*/64);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(10, 16)));
  const PageId root = fx.tree().root_page();
  const uint64_t original = FirstId(fx, root);
  OverwriteInStorage(fx, root, original + 1);
  EXPECT_EQ(FirstId(fx, root), original) << "resident frame serves hits";
  KCPQ_ASSERT_OK(fx.buffer().FlushAndClear());
  EXPECT_EQ(FirstId(fx, root), original + 1);
}

TEST(NodeImageStaleTest, QueryAfterInsertSeesTheNewPoint) {
  TreeFixture fp(/*buffer_pages=*/256), fq(/*buffer_pages=*/256);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(400, 17)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(400, 18)));
  CpqOptions options;
  options.k = 1;
  auto before = KClosestPairs(fp.tree(), fq.tree(), options);
  KCPQ_ASSERT_OK(before.status());
  ASSERT_GT(before.value()[0].distance, 0.0);
  // A copy of a Q point lands in P: the closest pair is now at distance 0.
  KCPQ_ASSERT_OK(fp.tree().Insert(before.value()[0].q, 4242));
  auto after = KClosestPairs(fp.tree(), fq.tree(), options);
  KCPQ_ASSERT_OK(after.status());
  EXPECT_EQ(after.value()[0].distance, 0.0);
  EXPECT_EQ(after.value()[0].p_id, 4242u);
}

// ---------------------------------------------------------------------------
// Differential: oracle answers and identical counters at every buffer size.

/// One buffer configuration: the same trees (built by the same insertion
/// sequence, so page for page identical) behind buffers of `pages` frames.
struct Config {
  size_t pages;
  const char* name;
};
constexpr size_t kSmallLru = 6;
constexpr Config kConfigs[] = {
    {0, "B=0"}, {1 << 14, "holds-both"}, {kSmallLru, "small-LRU"}};

bool InRect(const Rect& rect, const Point& p) {
  return rect.Contains(Rect::FromPoint(p));
}

/// Independent oracle for the farthest and rect-restricted families.
std::vector<double> FamilyOracle(const Items& p, const Items& q, size_t k,
                                 QueryFamily family, const Rect& rect) {
  std::vector<double> d;
  for (const auto& [pp, pid] : p) {
    for (const auto& [qq, qid] : q) {
      if (family == QueryFamily::kRangeClosest &&
          (!InRect(rect, pp) || !InRect(rect, qq))) {
        continue;
      }
      d.push_back(Distance(pp, qq));
    }
  }
  std::sort(d.begin(), d.end());
  if (family == QueryFamily::kFarthest) std::reverse(d.begin(), d.end());
  if (d.size() > k) d.resize(k);
  return d;
}

void ExpectDistances(const std::vector<PairResult>& got,
                     const std::vector<double>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].distance, want[i], 1e-9) << label << " rank " << i;
  }
}

std::vector<double> DistancesOf(const std::vector<PairResult>& pairs) {
  std::vector<double> d;
  for (const PairResult& r : pairs) d.push_back(r.distance);
  return d;
}

/// Misses an LRU buffer of `capacity` frames, empty at the start, takes
/// on the page sequence `accesses`.
uint64_t LruMisses(const std::vector<PageId>& accesses, size_t capacity) {
  std::list<PageId> lru;  // front = most recent
  uint64_t misses = 0;
  for (const PageId id : accesses) {
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it != lru.end()) {
      lru.erase(it);
    } else {
      ++misses;
      if (lru.size() >= capacity) lru.pop_back();
    }
    lru.push_front(id);
  }
  return misses;
}

struct CpqRun {
  std::vector<PairResult> pairs;
  CpqStats stats;
  std::vector<PageId> reads_p, reads_q;  // logical reads, in order
};

/// Runs one K-CPQ query with a trace attached and recovers each tree's
/// logical read sequence from it: the two root reads, then one read per
/// side for every expanded node pair (the kDescend events).
CpqRun RunCpq(TreeFixture& fp, TreeFixture& fq, CpqOptions options) {
  obs::TraceBuffer trace;
  QueryContext ctx(options.control);
  ctx.set_trace(&trace);
  options.context = &ctx;
  CpqRun run;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options, &run.stats);
  KCPQ_CHECK_OK(result.status());
  run.pairs = std::move(result).value();
  EXPECT_EQ(trace.dropped(), 0u);
  run.reads_p.push_back(fp.tree().root_page());
  run.reads_q.push_back(fq.tree().root_page());
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind != obs::TraceEventKind::kDescend) continue;
    run.reads_p.push_back(e.a);
    run.reads_q.push_back(e.b);
  }
  return run;
}

void ExpectSameWork(const CpqStats& a, const CpqStats& b,
                    const std::string& label) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed) << label;
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated) << label;
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned) << label;
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations)
      << label;
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped) << label;
  EXPECT_EQ(a.max_heap_size, b.max_heap_size) << label;
  EXPECT_EQ(a.node_accesses, b.node_accesses) << label;
}

void ExpectSamePairs(const std::vector<PairResult>& a,
                     const std::vector<PairResult>& b,
                     const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].p_id, b[i].p_id) << label << " rank " << i;
    EXPECT_EQ(a[i].q_id, b[i].q_id) << label << " rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << label << " rank " << i;
  }
}

struct Query {
  std::string name;
  CpqOptions options;
  bool self = false;
};

std::vector<Query> QueriesFor(int seed, Xoshiro256pp& rng) {
  std::vector<Query> out;
  const Metric metric = seed % 4 == 1 ? Metric::kL1 : Metric::kL2;
  const size_t k = seed % 2 == 0 ? 1 : 10;
  const std::pair<CpqAlgorithm, const char*> algorithms[] = {
      {CpqAlgorithm::kHeap, "HEAP"},
      {CpqAlgorithm::kSortedDistances, "STD"},
      {CpqAlgorithm::kExhaustive, "EXH"},
      {CpqAlgorithm::kSimple, "SIM"}};
  for (const auto& [algorithm, name] : algorithms) {
    Query q{name, CpqOptions{}};
    q.options.algorithm = algorithm;
    q.options.k = k;
    q.options.metric = metric;
    out.push_back(q);
  }
  Query self{"self", CpqOptions{}, true};
  self.options.algorithm =
      seed % 2 == 0 ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  self.options.k = 10;
  out.push_back(self);
  Query rect{"rect", CpqOptions{}};
  rect.options.family = QueryFamily::kRangeClosest;
  rect.options.query_rect = RandomRect(rng, 0.6);
  rect.options.k = 5;
  out.push_back(rect);
  Query far{"farthest", CpqOptions{}};
  far.options.family = QueryFamily::kFarthest;
  far.options.k = 5;
  out.push_back(far);
  return out;
}

TEST(NodeImageDifferential, FiftySeedsMatchOracleAtEveryBufferSize) {
  for (int seed = 0; seed < 50; ++seed) {
    const size_t np = 120 + static_cast<size_t>(seed % 5) * 40;
    const size_t nq = 120 + static_cast<size_t>((seed / 5) % 5) * 40;
    Items p_items = MakeUniformItems(np, 5000 + seed);
    const Items q_items = seed % 2 == 0 ? MakeUniformItems(nq, 6000 + seed)
                                        : MakeClusteredItems(nq, 6000 + seed);
    std::vector<std::unique_ptr<TreeFixture>> ps, qs;
    for (const Config& config : kConfigs) {
      ps.push_back(std::make_unique<TreeFixture>(config.pages));
      qs.push_back(std::make_unique<TreeFixture>(config.pages));
      KCPQ_ASSERT_OK(ps.back()->Build(p_items));
      KCPQ_ASSERT_OK(qs.back()->Build(q_items));
    }
    Xoshiro256pp rng(7000 + seed);
    uint64_t next_id = np;
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        // R* inserts and erases rewrite nodes between query rounds; every
        // configuration sees the same updates, so the trees stay equal.
        for (int i = 0; i < 15; ++i) {
          const Point pt{{rng.NextDouble(), rng.NextDouble()}};
          for (auto& fp : ps) KCPQ_ASSERT_OK(fp->tree().Insert(pt, next_id));
          p_items.emplace_back(pt, next_id++);
          const auto [old_pt, old_id] = p_items.front();
          for (auto& fp : ps) {
            auto erased = fp->tree().Erase(old_pt, old_id);
            KCPQ_ASSERT_OK(erased.status());
            ASSERT_TRUE(erased.value());
          }
          p_items.erase(p_items.begin());
        }
      }
      for (const Query& query : QueriesFor(seed, rng)) {
        const std::string label = "seed " + std::to_string(seed) + " round " +
                                  std::to_string(round) + " " + query.name;
        std::vector<CpqRun> runs;
        for (size_t c = 0; c < std::size(kConfigs); ++c) {
          TreeFixture& fp = *ps[c];
          TreeFixture& fq = query.self ? *ps[c] : *qs[c];
          CpqOptions options = query.options;
          options.self_join = query.self;
          if (kConfigs[c].pages == kSmallLru) {
            // Cold start, so the LRU replay below starts from empty too.
            KCPQ_ASSERT_OK(fp.buffer().FlushAndClear());
            KCPQ_ASSERT_OK(fq.buffer().FlushAndClear());
          }
          runs.push_back(RunCpq(fp, fq, options));
          const CpqRun& run = runs.back();
          const std::string at = label + " " + kConfigs[c].name;
          ExpectSameWork(runs.front().stats, run.stats, at);
          ExpectSamePairs(runs.front().pairs, run.pairs, at);
          if (kConfigs[c].pages == 0) {
            // Every logical read is a miss. A self-join's one buffer
            // counts both sides' reads on each side.
            const uint64_t p_reads = run.reads_p.size();
            const uint64_t q_reads = run.reads_q.size();
            EXPECT_EQ(run.stats.disk_accesses_p,
                      query.self ? p_reads + q_reads : p_reads)
                << at;
            EXPECT_EQ(run.stats.disk_accesses_q,
                      query.self ? p_reads + q_reads : q_reads)
                << at;
          } else if (kConfigs[c].pages == kSmallLru && !query.self) {
            EXPECT_EQ(run.stats.disk_accesses_p,
                      LruMisses(run.reads_p, kSmallLru))
                << at;
            EXPECT_EQ(run.stats.disk_accesses_q,
                      LruMisses(run.reads_q, kSmallLru))
                << at;
          } else if (kConfigs[c].pages > kSmallLru) {
            // Warm rerun: both trees are resident, every read is a hit.
            const CpqRun warm = RunCpq(fp, fq, options);
            EXPECT_EQ(warm.stats.disk_accesses(), 0u) << at;
            ExpectSameWork(run.stats, warm.stats, at + " warm");
            ExpectSamePairs(run.pairs, warm.pairs, at + " warm");
          }
        }
        const std::vector<PairResult>& got = runs.front().pairs;
        const CpqOptions& o = query.options;
        if (o.family != QueryFamily::kClosest) {
          ExpectDistances(got,
                          FamilyOracle(p_items, q_items, o.k, o.family,
                                       o.query_rect),
                          label);
        } else {
          const std::vector<PairResult> want = BruteForceKClosestPairs(
              p_items, query.self ? p_items : q_items, o.k, query.self,
              o.metric);
          ExpectDistances(got, DistancesOf(want), label);
        }
      }
      // HS through the same images.
      std::vector<std::vector<PairResult>> hs_pairs;
      std::vector<HsStats> hs_stats;
      for (size_t c = 0; c < std::size(kConfigs); ++c) {
        HsStats stats;
        auto result = HsKClosestPairs(ps[c]->tree(), qs[c]->tree(), 10,
                                      HsOptions(), &stats);
        KCPQ_ASSERT_OK(result.status());
        hs_pairs.push_back(std::move(result).value());
        hs_stats.push_back(stats);
        const std::string at = "seed " + std::to_string(seed) + " HS " +
                               kConfigs[c].name;
        ExpectSamePairs(hs_pairs.front(), hs_pairs.back(), at);
        EXPECT_EQ(hs_stats.front().items_pushed, stats.items_pushed) << at;
        EXPECT_EQ(hs_stats.front().items_popped, stats.items_popped) << at;
        EXPECT_EQ(hs_stats.front().node_accesses, stats.node_accesses) << at;
        if (kConfigs[c].pages == 0) {
          EXPECT_EQ(stats.disk_accesses(), stats.node_accesses + 2) << at;
        }
      }
      ExpectDistances(hs_pairs.front(),
                      DistancesOf(BruteForceKClosestPairs(p_items, q_items,
                                                          10)),
                      "seed " + std::to_string(seed) + " HS");
    }
  }
}

}  // namespace
}  // namespace kcpq
