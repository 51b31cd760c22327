// Corruption robustness: random byte mutations in tree pages must surface
// as clean Corruption/error Status values — queries and validation never
// crash, hang, or silently succeed on mangled structures they detect.

#include <limits>
#include <string>
#include <vector>

#include "common/resumable.h"
#include "cpq/cpq.h"
#include "cpq/resumable.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;
using testing::TreeFixture;

// Flips `flips` random bytes in a random allocated page (skipping the meta
// page so the tree can still be addressed).
void CorruptRandomPage(MemoryStorageManager* storage, PageId meta_page,
                       Xoshiro256pp* rng, int flips) {
  PageId victim;
  do {
    victim = rng->NextBounded(storage->PageCount());
  } while (victim == meta_page);
  Page page;
  KCPQ_CHECK_OK(storage->ReadPage(victim, &page));
  for (int i = 0; i < flips; ++i) {
    page.data()[rng->NextBounded(page.size())] ^=
        static_cast<uint8_t>(1 + rng->NextBounded(255));
  }
  KCPQ_CHECK_OK(storage->WritePage(victim, page));
}

class CorruptionSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionSweepTest, MutatedPagesNeverCrashQueriesOrValidation) {
  Xoshiro256pp rng(GetParam());
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1500, 2000 + GetParam())));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(1500, 3000 + GetParam())));

  for (int round = 0; round < 10; ++round) {
    CorruptRandomPage(&fp.storage(), fp.tree().meta_page(), &rng,
                      1 + static_cast<int>(rng.NextBounded(16)));
    // Every operation either succeeds (the mutation hit payload bytes that
    // happen to parse — e.g. coordinates) or reports an error; it must not
    // crash or hang.
    const Status validation = fp.tree().Validate();
    if (!validation.ok()) {
      EXPECT_NE(validation.code(), StatusCode::kOk);
    }
    CpqOptions options;
    options.algorithm = round % 2 == 0 ? CpqAlgorithm::kHeap
                                       : CpqAlgorithm::kSortedDistances;
    options.k = 3;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    if (!result.ok()) {
      // Acceptable error classes for mangled pages.
      EXPECT_TRUE(result.status().code() == StatusCode::kCorruption ||
                  result.status().code() == StatusCode::kOutOfRange ||
                  result.status().code() == StatusCode::kFailedPrecondition ||
                  result.status().code() == StatusCode::kInternal)
          << result.status().ToString();
    }
    std::vector<Entry> hits;
    (void)fp.tree().RangeQuery(UnitWorkspace(), &hits);
    std::vector<Neighbor> nn;
    (void)fp.tree().NearestNeighbors(Point{{0.5, 0.5}}, 5, &nn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CorruptionTest, ZeroedNodePageDetected) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(1000, 2100)));
  // Zero the root page: level/count become 0 — an empty leaf where an
  // internal node should be. Validation must flag the imbalance.
  Page zero(fx.storage().page_size());
  KCPQ_ASSERT_OK(fx.storage().WritePage(fx.tree().root_page(), zero));
  const Status validation = fx.tree().Validate();
  EXPECT_FALSE(validation.ok());
}

TEST(CorruptionTest, DanglingChildPointerDetected) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(1000, 2101)));
  // Point the root's first child at a wildly invalid page id.
  Page page;
  KCPQ_ASSERT_OK(fx.storage().ReadPage(fx.tree().root_page(), &page));
  Node root;
  KCPQ_ASSERT_OK(DeserializeNode(page, &root));
  ASSERT_FALSE(root.IsLeaf());
  root.entries[0].id = 999999999;
  KCPQ_ASSERT_OK(SerializeNode(root, &page));
  KCPQ_ASSERT_OK(fx.storage().WritePage(fx.tree().root_page(), page));
  EXPECT_FALSE(fx.tree().Validate().ok());
  std::vector<Entry> hits;
  EXPECT_FALSE(fx.tree().RangeQuery(UnitWorkspace(), &hits).ok());
}

TEST(CorruptionTest, NanCoordinateIsCorruption) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1000, 2102)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(500, 2103)));
  // A NaN upper face: `lo > hi` is false for NaN, so only a check written
  // as !(lo <= hi) rejects it.
  Page page;
  KCPQ_ASSERT_OK(fp.storage().ReadPage(fp.tree().root_page(), &page));
  Node root;
  KCPQ_ASSERT_OK(DeserializeNode(page, &root));
  root.entries[0].rect.hi[1] = std::numeric_limits<double>::quiet_NaN();
  KCPQ_ASSERT_OK(SerializeNode(root, &page));
  KCPQ_ASSERT_OK(fp.storage().WritePage(fp.tree().root_page(), page));

  Node node;
  EXPECT_EQ(DeserializeNode(page, &node).code(), StatusCode::kCorruption);
  NodeImagePtr image;
  EXPECT_EQ(NodeImage::Decode(page, &image).code(), StatusCode::kCorruption);
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kHeap, CpqAlgorithm::kSortedDistances}) {
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 5;
    EXPECT_EQ(KClosestPairs(fp.tree(), fq.tree(), options).status().code(),
              StatusCode::kCorruption);
  }
  EXPECT_EQ(HsKClosestPairs(fp.tree(), fq.tree(), 5).status().code(),
            StatusCode::kCorruption);
}

// Rewrites the first entry of `fx`'s root (an internal node) to link
// `child`, behind the buffer's back.
void RelinkFirstChild(TreeFixture& fx, PageId child) {
  Page page;
  KCPQ_CHECK_OK(fx.storage().ReadPage(fx.tree().root_page(), &page));
  Node root;
  KCPQ_CHECK_OK(DeserializeNode(page, &root));
  ASSERT_FALSE(root.IsLeaf());
  root.entries[0].id = child;
  KCPQ_CHECK_OK(SerializeNode(root, &page));
  KCPQ_CHECK_OK(fx.storage().WritePage(fx.tree().root_page(), page));
}

// Every query kind, on the blocking engines and as a resumable state
// machine (batched, and one query run inline), reports Corruption for the bad
// link in `fp` — no crash, and no hang on a link that would loop.
void ExpectCorruptionEverywhere(TreeFixture& fp, TreeFixture& fq,
                                const std::string& label) {
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kHeap, CpqAlgorithm::kSortedDistances,
        CpqAlgorithm::kSimple}) {
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 5;
    EXPECT_EQ(KClosestPairs(fp.tree(), fq.tree(), options).status().code(),
              StatusCode::kCorruption)
        << label << " blocking " << CpqAlgorithmName(algorithm);
  }
  EXPECT_EQ(HsKClosestPairs(fp.tree(), fq.tree(), 5).status().code(),
            StatusCode::kCorruption)
      << label;
  EXPECT_EQ(SemiClosestPairs(fp.tree(), fq.tree()).status().code(),
            StatusCode::kCorruption)
      << label;
  std::vector<Entry> hits;
  EXPECT_EQ(fp.tree().RangeQuery(UnitWorkspace(), &hits).code(),
            StatusCode::kCorruption)
      << label;
  EXPECT_EQ(fp.tree().Validate().code(), StatusCode::kCorruption) << label;

  std::vector<BatchQuery> batch(3);
  batch[0].options.algorithm = CpqAlgorithm::kHeap;
  batch[0].options.k = 5;
  batch[1].kind = BatchQueryKind::kHsClosestPairs;
  batch[1].options.k = 5;
  batch[2].kind = BatchQueryKind::kSemiClosestPairs;
  BatchOptions options;
  options.threads = 2;
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = batch.size();
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, options);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCorruption)
        << label << " resumable query " << i;
  }

  CpqOptions inline_options;
  inline_options.k = 5;
  CpqStats stats;
  InlineWakerGate gate;
  ResumableCpqQuery task(fp.tree(), fq.tree(), inline_options, &stats,
                         gate.waker());
  gate.RunToCompletion(task);
  EXPECT_EQ(task.status().code(), StatusCode::kCorruption) << label;
}

TEST(CorruptionTest, ChildPagePastTheStoreIsCorruption) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1000, 2104)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(500, 2105)));
  RelinkFirstChild(fp, fp.storage().PageCount());
  Page page;
  KCPQ_ASSERT_OK(fp.storage().ReadPage(fp.tree().root_page(), &page));
  Node node;
  EXPECT_EQ(DeserializeNode(page, &node, fp.storage().PageCount()).code(),
            StatusCode::kCorruption);
  NodeImagePtr image;
  EXPECT_EQ(NodeImage::Decode(page, &image, fp.storage().PageCount()).code(),
            StatusCode::kCorruption);
  ExpectCorruptionEverywhere(fp, fq, "past the store");
}

TEST(CorruptionTest, ChildAtTheWrongLevelIsCorruption) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1000, 2106)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(500, 2107)));
  ASSERT_GE(fp.tree().height(), 2);
  // The root links itself: a cycle a traversal would follow forever if a
  // child's level were not checked against its parent's.
  RelinkFirstChild(fp, fp.tree().root_page());
  ExpectCorruptionEverywhere(fp, fq, "cycle");
}

}  // namespace
}  // namespace kcpq
