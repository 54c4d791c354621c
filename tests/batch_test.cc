#include "batch/batch_executor.h"

#include "gtest/gtest.h"

#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

class BatchTest : public ::testing::Test {
 protected:
  BatchTest() : grid_(GridLayout(kUnit, 16, 16)) {
    entries_ = testing::RandomEntries(800, 0.1, 81);
    grid_.Build(entries_);
    queries_ = testing::RandomWindows(120, 82);
  }

  std::vector<BoxEntry> entries_;
  TwoLayerGrid grid_{GridLayout(kUnit, 16, 16)};
  std::vector<Box> queries_;
};

TEST_F(BatchTest, TilesBasedCollectsSameResultsAsQueriesBased) {
  const auto by_query = BatchExecutor::CollectQueriesBased(grid_, queries_);
  const auto by_tile = BatchExecutor::CollectTilesBased(grid_, queries_);
  ASSERT_EQ(by_query.size(), by_tile.size());
  for (std::size_t k = 0; k < by_query.size(); ++k) {
    testing::ExpectSameIdSet(by_query[k], by_tile[k],
                             "query " + std::to_string(k));
  }
}

TEST_F(BatchTest, QueriesBasedMatchesIndividualEvaluation) {
  const auto collected = BatchExecutor::CollectQueriesBased(grid_, queries_);
  for (std::size_t k = 0; k < queries_.size(); ++k) {
    std::vector<ObjectId> single;
    grid_.WindowQuery(queries_[k], &single);
    testing::ExpectSameIdSet(single, collected[k]);
  }
}

TEST_F(BatchTest, CountsMatchCollectedSizes) {
  const auto collected = BatchExecutor::CollectQueriesBased(grid_, queries_);
  const auto counts_q = BatchExecutor::RunQueriesBased(grid_, queries_, 1);
  const auto counts_t = BatchExecutor::RunTilesBased(grid_, queries_, 1);
  ASSERT_EQ(counts_q.size(), queries_.size());
  ASSERT_EQ(counts_t.size(), queries_.size());
  for (std::size_t k = 0; k < queries_.size(); ++k) {
    EXPECT_EQ(counts_q[k], collected[k].size()) << k;
    EXPECT_EQ(counts_t[k], collected[k].size()) << k;
  }
}

class BatchThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchThreadsTest, ParallelCountsEqualSequential) {
  const Box unit{0, 0, 1, 1};
  const auto entries = testing::RandomEntries(800, 0.1, 83);
  TwoLayerGrid grid(GridLayout(unit, 16, 16));
  grid.Build(entries);
  const auto queries = testing::RandomWindows(150, 84);
  const auto expected = BatchExecutor::RunQueriesBased(grid, queries, 1);

  const auto threads = static_cast<std::size_t>(GetParam());
  EXPECT_EQ(BatchExecutor::RunQueriesBased(grid, queries, threads), expected);
  EXPECT_EQ(BatchExecutor::RunTilesBased(grid, queries, threads), expected);
}

// 0 means one worker: the round-robin stride and the tile split are sized
// by the worker count, never by zero.
INSTANTIATE_TEST_SUITE_P(Threads, BatchThreadsTest,
                         ::testing::Values(1, 2, 3, 4, 8, 0));

TEST(BatchEdgeTest, EmptyBatch) {
  TwoLayerGrid grid(GridLayout(Box{0, 0, 1, 1}, 4, 4));
  const std::vector<Box> none;
  EXPECT_TRUE(BatchExecutor::RunQueriesBased(grid, none, 2).empty());
  EXPECT_TRUE(BatchExecutor::RunTilesBased(grid, none, 2).empty());
}

TEST(BatchEdgeTest, MoreThreadsThanQueries) {
  const auto entries = testing::RandomEntries(100, 0.2, 85);
  TwoLayerGrid grid(GridLayout(Box{0, 0, 1, 1}, 8, 8));
  grid.Build(entries);
  const std::vector<Box> queries = {Box{0.1, 0.1, 0.4, 0.4}};
  const auto seq = BatchExecutor::RunQueriesBased(grid, queries, 1);
  EXPECT_EQ(BatchExecutor::RunQueriesBased(grid, queries, 16), seq);
  EXPECT_EQ(BatchExecutor::RunTilesBased(grid, queries, 16), seq);
}

}  // namespace
}  // namespace tlp
