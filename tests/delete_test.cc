// Deletion support of the grid indices: removing objects must restore the
// exact query behaviour of an index never containing them, across classes,
// replicas, and interleavings with inserts.

#include <algorithm>

#include "gtest/gtest.h"

#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "grid/one_layer_grid.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

TEST(TwoLayerDeleteTest, DeleteRemovesAllReplicasAndClasses) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  const Box spanning{0.3, 0.3, 0.7, 0.7};  // classes A, B, C, D in 4 tiles
  grid.Insert(BoxEntry{spanning, 7});
  EXPECT_EQ(grid.entry_count(), 4u);
  EXPECT_TRUE(grid.Delete(7, spanning));
  EXPECT_EQ(grid.entry_count(), 0u);
  std::vector<ObjectId> out;
  grid.WindowQuery(kUnit, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(grid.Delete(7, spanning));  // already gone
}

TEST(TwoLayerDeleteTest, RandomDeletionsMatchRebuiltIndex) {
  auto entries = testing::RandomEntries(500, 0.2, 241);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  // Delete every third entry.
  std::vector<BoxEntry> remaining;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (k % 3 == 0) {
      EXPECT_TRUE(grid.Delete(entries[k].id, entries[k].box)) << k;
    } else {
      remaining.push_back(entries[k]);
    }
  }
  EXPECT_TRUE(grid.CheckInvariants());
  for (const Box& w : testing::RandomWindows(60, 242)) {
    testing::CheckWindowAgainstBruteForce(grid, remaining, w, "post-delete");
  }
  Rng rng(243);
  for (int t = 0; t < 20; ++t) {
    testing::CheckDiskAgainstBruteForce(
        grid, remaining, Point{rng.NextDouble(), rng.NextDouble()},
        rng.NextDouble() * 0.3);
  }
}

TEST(TwoLayerDeleteTest, InterleavedInsertDelete) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  auto entries = testing::RandomEntries(300, 0.15, 244);
  std::vector<BoxEntry> alive;
  Rng rng(245);
  for (const BoxEntry& e : entries) {
    grid.Insert(e);
    alive.push_back(e);
    if (alive.size() > 3 && rng.NextDouble() < 0.4) {
      const std::size_t victim = rng.NextBelow(alive.size());
      EXPECT_TRUE(grid.Delete(alive[victim].id, alive[victim].box));
      alive[victim] = alive.back();
      alive.pop_back();
    }
  }
  EXPECT_TRUE(grid.CheckInvariants());
  for (const Box& w : testing::RandomWindows(50, 246)) {
    testing::CheckWindowAgainstBruteForce(grid, alive, w, "interleaved");
  }
}

TEST(TwoLayerDeleteTest, DeleteWithWrongBoxFails) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Insert(BoxEntry{Box{0.1, 0.1, 0.15, 0.15}, 3});
  // A box in a disjoint tile range cannot locate the entry.
  EXPECT_FALSE(grid.Delete(3, Box{0.8, 0.8, 0.9, 0.9}));
  EXPECT_TRUE(grid.Delete(3, Box{0.1, 0.1, 0.15, 0.15}));
}

TEST(TwoLayerDeleteTest, CheckInvariantsCatchesOrphanReplicas) {
  // A box sharing only the lower-corner tile with the stored one finds and
  // removes the class-A replica but leaves the one in tile (1,0) behind;
  // re-inserting the object then stores that tile's replica twice.
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  const Box stored{0.1, 0.1, 0.4, 0.2};
  grid.Insert(BoxEntry{stored, 7});
  ASSERT_TRUE(grid.CheckInvariants());
  EXPECT_TRUE(grid.Delete(7, Box{0.1, 0.1, 0.2, 0.2}));
  EXPECT_FALSE(grid.CheckInvariants()) << "orphan replica in tile (1,0)";
  grid.Insert(BoxEntry{stored, 7});
  EXPECT_FALSE(grid.CheckInvariants()) << "tile (1,0) holds id 7 twice";
}

TEST(TwoLayerPlusDeleteTest, DeleteRemovesEntryFromSortedTables) {
  // Regression: Delete must clean the decomposed sorted tables, not only the
  // inner record grid — a stale table keeps reporting the dead id from the
  // binary-search path even though the record layer no longer holds it.
  TwoLayerPlusGrid grid(GridLayout(kUnit, 4, 4));
  const Box spanning{0.3, 0.3, 0.7, 0.7};  // classes A, B, C, D in 4 tiles
  grid.Build({BoxEntry{spanning, 7}, BoxEntry{Box{0.1, 0.1, 0.12, 0.12}, 8}});
  ASSERT_TRUE(grid.CheckInvariants());
  EXPECT_TRUE(grid.Delete(7, spanning));
  EXPECT_TRUE(grid.CheckInvariants());
  std::vector<ObjectId> out;
  grid.WindowQuery(kUnit, &out);
  testing::ExpectSameIdSet({8}, out, "dead id must not resurface");
  EXPECT_FALSE(grid.Delete(7, spanning));  // already gone
}

TEST(TwoLayerPlusDeleteTest, DeleteWithWrongBoxFails) {
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  grid.Insert(BoxEntry{Box{0.1, 0.1, 0.15, 0.15}, 3});
  EXPECT_FALSE(grid.Delete(3, Box{0.8, 0.8, 0.9, 0.9}));
  EXPECT_TRUE(grid.CheckInvariants());
  EXPECT_TRUE(grid.Delete(3, Box{0.1, 0.1, 0.15, 0.15}));
  EXPECT_TRUE(grid.CheckInvariants());
}

TEST(TwoLayerPlusDeleteTest, RandomDeletionsMatchBruteForce) {
  auto entries = testing::RandomEntries(400, 0.2, 249);
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  std::vector<BoxEntry> remaining;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (k % 3 == 0) {
      EXPECT_TRUE(grid.Delete(entries[k].id, entries[k].box)) << k;
    } else {
      remaining.push_back(entries[k]);
    }
  }
  EXPECT_TRUE(grid.CheckInvariants());
  for (const Box& w : testing::RandomWindows(60, 250)) {
    testing::CheckWindowAgainstBruteForce(grid, remaining, w, "2-layer+");
  }
  Rng rng(251);
  for (int t = 0; t < 20; ++t) {
    testing::CheckDiskAgainstBruteForce(
        grid, remaining, Point{rng.NextDouble(), rng.NextDouble()},
        rng.NextDouble() * 0.3);
  }
}

TEST(TwoLayerPlusDeleteTest, InterleavedInsertDelete) {
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  auto entries = testing::RandomEntries(300, 0.15, 252);
  std::vector<BoxEntry> alive;
  Rng rng(253);
  for (const BoxEntry& e : entries) {
    grid.Insert(e);
    alive.push_back(e);
    if (alive.size() > 3 && rng.NextDouble() < 0.4) {
      const std::size_t victim = rng.NextBelow(alive.size());
      EXPECT_TRUE(grid.Delete(alive[victim].id, alive[victim].box));
      alive[victim] = alive.back();
      alive.pop_back();
    }
  }
  EXPECT_TRUE(grid.CheckInvariants());
  for (const Box& w : testing::RandomWindows(50, 254)) {
    testing::CheckWindowAgainstBruteForce(grid, alive, w, "2-layer+ mixed");
  }
}

TEST(OneLayerDeleteTest, MatchesBruteForceAfterDeletions) {
  auto entries = testing::RandomEntries(400, 0.2, 247);
  OneLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  std::vector<BoxEntry> remaining;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(grid.Delete(entries[k].id, entries[k].box));
    } else {
      remaining.push_back(entries[k]);
    }
  }
  for (const Box& w : testing::RandomWindows(50, 248)) {
    testing::CheckWindowAgainstBruteForce(grid, remaining, w);
  }
  EXPECT_FALSE(grid.Delete(999999, Box{0.5, 0.5, 0.6, 0.6}));
}

}  // namespace
}  // namespace tlp
