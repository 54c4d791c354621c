// Differential tests for the skyline query (core/skyline.h): the
// index-accelerated class-A sweep with per-tile extent-bound pruning must
// reproduce the O(n^2) brute-force skyline bit for bit — same entries,
// same (dx, dy) attributes, id order — under regions, predicates,
// attribute ties, entries clamped from outside the domain, NaN
// coordinates, and extents widened by Insert, left stale by Delete, or
// derived from a mapped snapshot.

#include "core/skyline.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "datagen/tiger_like.h"
#include "persist/snapshot_reader.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

using testing::BruteForceSkyline;
using testing::ExpectBitIdentical;

// Queries at `queries` random points, with and without `region`, against
// the brute-force skyline of `data`.
void ExpectMatchesBruteForce(const TwoLayerGrid& grid,
                             const std::vector<BoxEntry>& data,
                             std::uint64_t seed, int queries,
                             const std::string& context) {
  Rng rng(seed);
  const Box region{0.2, 0.1, 0.7, 0.9};
  for (int t = 0; t < queries; ++t) {
    const Point q{rng.NextDouble() * 1.2 - 0.1, rng.NextDouble() * 1.2 - 0.1};
    ExpectBitIdentical(SkylineQuery(grid, q), BruteForceSkyline(data, q),
                       context);
    ExpectBitIdentical(SkylineQuery(grid, q, &region),
                       BruteForceSkyline(data, q, &region),
                       context + " region");
  }
}

void ExpectNoDuplicateIds(const std::vector<SkylineEntry>& sky) {
  std::vector<ObjectId> ids;
  for (const SkylineEntry& s : sky) ids.push_back(s.entry.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate ids in skyline";
}

TEST(SkylineTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(900, 0.05, 411);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(412);
  for (int t = 0; t < 40; ++t) {
    // Queries inside and well outside the domain.
    const Point q{rng.NextDouble() * 2.4 - 0.7, rng.NextDouble() * 2.4 - 0.7};
    const auto got = SkylineQuery(grid, q);
    EXPECT_EQ(got, BruteForceSkyline(data, q))
        << "q=(" << q.x << "," << q.y << ")";
    ExpectNoDuplicateIds(got);
  }
}

TEST(SkylineTest, RegionRestrictedMatchesBruteForce) {
  const auto data = testing::RandomEntries(700, 0.08, 413);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(414);
  const auto windows = testing::RandomWindows(25, 415);
  for (const Box& w : windows) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    EXPECT_EQ(SkylineQuery(grid, q, &w), BruteForceSkyline(data, q, &w))
        << "region=(" << w.xl << "," << w.yl << "," << w.xu << "," << w.yu
        << ")";
  }
}

TEST(SkylineTest, PredicateRestrictsTheInputSet) {
  const auto data = testing::RandomEntries(600, 0.06, 416);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.id % 3 == 0;
  };
  Rng rng(417);
  for (int t = 0; t < 15; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const auto got = SkylineQuery(grid, q, nullptr, keep);
    EXPECT_EQ(got, BruteForceSkyline(data, q, nullptr, keep));
    for (const SkylineEntry& s : got) EXPECT_EQ(s.entry.id % 3, 0u);
    // The filtered skyline can contain objects the unrestricted skyline
    // dominates away — predicates restrict the input, not the output.
  }
}

TEST(SkylineTest, RegionAndPredicateCompose) {
  const auto data = testing::RandomEntries(500, 0.1, 418);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Box region{0.2, 0.2, 0.8, 0.7};
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.box.area() > 0.001;
  };
  const Point q{0.5, 0.9};
  EXPECT_EQ(SkylineQuery(grid, q, &region, keep),
            BruteForceSkyline(data, q, &region, keep));
}

TEST(SkylineTest, AttributeTiesAreAllReported) {
  // Four identical boxes plus one incomparable neighbor: equal (dx, dy)
  // points do not dominate each other, so all of them belong to the
  // skyline together.
  std::vector<BoxEntry> data;
  for (ObjectId id = 0; id < 4; ++id) {
    data.push_back(BoxEntry{Box{0.4, 0.4, 0.45, 0.45}, id});
  }
  // Straddles y = 0.5: (dx, dy) = (0.1, 0) — incomparable with the
  // quadruplet's (0.05, 0.05), so it coexists with them.
  data.push_back(BoxEntry{Box{0.6, 0.45, 0.65, 0.55}, 4});
  data.push_back(BoxEntry{Box{0.1, 0.1, 0.2, 0.2}, 5});  // dominated
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};
  const auto got = SkylineQuery(grid, q);
  EXPECT_EQ(got, BruteForceSkyline(data, q));
  ASSERT_EQ(got.size(), 5u);  // everything but the dominated far box
}

TEST(SkylineTest, ContainingObjectsDominateEverythingElse) {
  const auto data = testing::RandomEntries(200, 0.05, 419);
  std::vector<BoxEntry> all = data;
  all.push_back(BoxEntry{Box{0.3, 0.3, 0.7, 0.7}, 500});  // contains q
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(all);
  const Point q{0.5, 0.5};
  const auto got = SkylineQuery(grid, q);
  EXPECT_EQ(got, BruteForceSkyline(all, q));
  // A (0, 0) point dominates every non-(0, 0) point, so every reported
  // entry must contain q on both axes.
  for (const SkylineEntry& s : got) {
    EXPECT_EQ(s.dx, 0.0);
    EXPECT_EQ(s.dy, 0.0);
  }
}

TEST(SkylineTest, OutOfDomainEntriesAreStillConsidered) {
  auto data = testing::RandomEntries(150, 0.05, 420);
  // Clamped into border tiles; the tile lower bounds must stay
  // conservative for these (column/row 0 bounds are forced to 0).
  const Box outliers[] = {Box{-30, 0.2, -29, 0.4}, Box{0.3, 77, 0.4, 78},
                          Box{12, -9, 13, -8}, Box{-5, -5, -4.5, -4.5}};
  ObjectId next = 150;
  for (const Box& b : outliers) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point queries[] = {Point{0.5, 0.5}, Point{-10, 0.3}, Point{40, 40}};
  for (const Point& q : queries) {
    EXPECT_EQ(SkylineQuery(grid, q), BruteForceSkyline(data, q))
        << "q=(" << q.x << "," << q.y << ")";
  }
}

TEST(SkylineTest, EmptyInputsYieldEmptySkylines) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  EXPECT_TRUE(SkylineQuery(empty, Point{0.5, 0.5}).empty());

  const auto data = testing::RandomEntries(50, 0.1, 421);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  const Box empty_region = Box::Empty();
  EXPECT_TRUE(SkylineQuery(grid, Point{0.5, 0.5}, &empty_region).empty());
  const EntryPredicate none = [](const BoxEntry&) { return false; };
  EXPECT_TRUE(SkylineQuery(grid, Point{0.5, 0.5}, nullptr, none).empty());
}

TEST(SkylineTest, NeverDeduplicatesPostHoc) {
  if (!kQueryStatsEnabled) GTEST_SKIP() << "built with TLP_STATS=OFF";
  const auto data = testing::RandomEntries(400, 0.2, 422,
                                           /*point_fraction=*/0.0);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  ResetQueryStats();
  Rng rng(423);
  for (int t = 0; t < 10; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    (void)SkylineQuery(grid, q);
    const Box w{0.1, 0.1, 0.9, 0.9};
    (void)SkylineQuery(grid, q, &w);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(s.posthoc_dedup, 0u) << "skyline deduplicated after the fact";
  EXPECT_GT(s.tiles_visited, 0u);
}

TEST(SkylineTest, TilePruningSkipsTiles) {
  if (!kQueryStatsEnabled) GTEST_SKIP() << "built with TLP_STATS=OFF";
  // Dense small objects everywhere and the query near the domain's lower
  // corner: a nearby skyline point found in q's own tile dominates the
  // extent bound of almost every other tile, so the sweep must visit far
  // fewer tiles than exist while staying exact. Queries in the middle of
  // the domain prune as well (CenteredQueriesPruneClusteredData); this
  // one checks the corner of the sweep order.
  const auto data = testing::RandomEntries(3000, 0.002, 424,
                                           /*point_fraction=*/0.5);
  TwoLayerGrid grid(GridLayout(kUnit, 32, 32));
  grid.Build(data);
  const Point q{0.01, 0.01};
  ResetQueryStats();
  const auto got = SkylineQuery(grid, q);
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(got, BruteForceSkyline(data, q));
  EXPECT_LT(s.tiles_visited, 32u * 32u / 2)
      << "lower-bound pruning never fired";
}

TEST(SkylineTest, NanCoordinateEntriesAreNeverPruned) {
  // A NaN attribute is never dominated, so the brute force reports the
  // NaN entry next to the box containing q. It is stored in column 0
  // (ColumnOf sends NaN there), a tile whose finite y-range alone would
  // give a bound the (0, 0) point dominates.
  constexpr Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  const std::vector<BoxEntry> data = {
      BoxEntry{Box{0.45, 0.05, 0.55, 0.15}, 0},
      BoxEntry{Box{nan, 0.9, nan, 0.95}, 1}};
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  EXPECT_TRUE(grid.CheckInvariants());
  const Point q{0.5, 0.1};
  const auto want = BruteForceSkyline(data, q);
  ASSERT_EQ(want.size(), 2u);
  ExpectBitIdentical(SkylineQuery(grid, q), want, "built");

  // Inserted after the build, NaN on y this time, into a tile that already
  // holds an ordinary entry.
  std::vector<BoxEntry> more = data;
  more.push_back(BoxEntry{Box{0.7, 0.3, 0.72, 0.31}, 2});
  TwoLayerGrid updated(GridLayout(kUnit, 8, 8));
  updated.Build(more);
  const BoxEntry nan_y{Box{0.71, nan, 0.73, nan}, 3};
  updated.Insert(nan_y);
  more.push_back(nan_y);
  EXPECT_TRUE(updated.CheckInvariants());
  ExpectBitIdentical(SkylineQuery(updated, q), BruteForceSkyline(more, q),
                     "inserted");
}

TEST(SkylineTest, NonFiniteCoordinatesMatchBruteForce) {
  // Infinite coordinates are ordinary extent values for a finite q. An
  // infinite q turns attributes like inf - inf into NaN: there the query
  // must not prune (q.x = inf: the tile holding {inf, 0.7, inf, 0.8} and
  // {0.95, 0.7, 0.97, 0.71} has x-bound 0, yet its first entry's NaN dx is
  // never dominated).
  constexpr Coord inf = std::numeric_limits<Coord>::infinity();
  constexpr Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  std::vector<BoxEntry> data = testing::RandomEntries(300, 0.05, 434);
  const Box odd[] = {Box{-inf, 0.2, 0.1, 0.3}, Box{0.5, 0.5, inf, 0.6},
                     Box{inf, 0.7, inf, 0.8}, Box{0.95, 0.7, 0.97, 0.71},
                     Box{0.2, -inf, 0.3, inf}};
  ObjectId next = 300;
  for (const Box& b : odd) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  EXPECT_TRUE(grid.CheckInvariants());
  const Point queries[] = {Point{0.5, 0.5},  Point{inf, 0.5},
                           Point{-inf, 0.3}, Point{0.5, inf},
                           Point{nan, 0.5},  Point{nan, nan}};
  for (const Point& q : queries) {
    ExpectBitIdentical(SkylineQuery(grid, q), BruteForceSkyline(data, q),
                       "q=(" + std::to_string(q.x) + "," +
                           std::to_string(q.y) + ")");
  }
}

TEST(SkylineTest, CenteredQueriesPruneClusteredData) {
  // TIGER-like clustered data with queries at object centres, the serving
  // workload's recipe. Each q lies inside the object it was drawn from,
  // so a (0, 0) point is found in q's tile and every tile whose class-A
  // extent does not contain q is pruned — on every side of q, which the
  // tile-corner bound (vacuous left of and below q) could not do.
  TigerConfig config;
  config.cardinality = 20000;
  config.seed = 425;
  const std::vector<BoxEntry> data = GenerateTigerLikeEntries(config);
  std::vector<Coord> areas;
  for (const BoxEntry& e : data) areas.push_back(e.box.area());
  const auto mid = areas.begin() + static_cast<long>(areas.size() / 2);
  std::nth_element(areas.begin(), mid, areas.end());
  const Coord median_area = *mid;
  const EntryPredicate large = [median_area](const BoxEntry& e) {
    return e.box.area() >= median_area;
  };

  constexpr std::uint32_t kSide = 64;
  TwoLayerGrid grid(GridLayout(kUnit, kSide, kSide));
  grid.Build(data);
  ResetQueryStats();
  Rng rng(426);
  constexpr int kQueries = 30;
  for (int t = 0; t < kQueries; ++t) {
    const BoxEntry& centre =
        data[static_cast<std::size_t>(rng.NextDouble() *
                                      static_cast<double>(data.size()))];
    const Point q = centre.box.center();
    ExpectBitIdentical(SkylineQuery(grid, q), BruteForceSkyline(data, q),
                       "unfiltered");
    ExpectBitIdentical(SkylineQuery(grid, q, nullptr, large),
                       BruteForceSkyline(data, q, nullptr, large),
                       "WHERE area >= median");
  }
  if (!kQueryStatsEnabled) return;
  const QueryStats s = GetQueryStats();
  EXPECT_EQ(s.posthoc_dedup, 0u);
  // Two queries per round; allow each one 1% of the grid's tiles.
  EXPECT_LT(s.tiles_visited, 2u * kQueries * kSide * kSide / 100)
      << "extent bounds failed to prune around centred queries";
}

TEST(SkylineTest, InsertWidensTheClassAExtent) {
  // A long object starting far left of q, in a tile whose built extent
  // ends well before q.x, and reaching past q: it contains q, so it ties
  // with the box around q at (0, 0). Without the widening its tile's
  // bound would be dominated and the object lost.
  std::vector<BoxEntry> data = testing::RandomEntries(900, 0.03, 427);
  data.push_back(BoxEntry{Box{0.79, 0.49, 0.81, 0.51}, 900});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const BoxEntry road{Box{0.02, 0.5, 0.9, 0.5}, 901};
  grid.Insert(road);
  data.push_back(road);
  EXPECT_TRUE(grid.CheckInvariants());
  const Point q{0.8, 0.5};
  const auto got = SkylineQuery(grid, q);
  ExpectBitIdentical(got, BruteForceSkyline(data, q), "q=(0.8,0.5)");
  EXPECT_TRUE(std::any_of(got.begin(), got.end(), [](const SkylineEntry& e) {
    return e.entry.id == 901;
  }));
  ExpectMatchesBruteForce(grid, data, 428, 20, "after insert");

  // Into a grid built empty: the extent starts as Box::Empty().
  TwoLayerGrid fresh(GridLayout(kUnit, 16, 16));
  fresh.Build({});
  fresh.Insert(road);
  EXPECT_TRUE(fresh.CheckInvariants());
  ExpectBitIdentical(SkylineQuery(fresh, q), BruteForceSkyline({road}, q),
                     "empty build");
}

TEST(SkylineTest, DeleteLeavesAStaleButValidExtent) {
  std::vector<BoxEntry> data = testing::RandomEntries(900, 0.05, 429);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  // Delete every tile's class-A entry that reaches furthest right, so each
  // extent keeps an x-range no remaining entry attains.
  std::vector<BoxEntry> removed;
  for (std::size_t t = 0; t < grid.layout().tile_count(); ++t) {
    const auto [p, n] = grid.ClassSpan(t, ObjectClass::kA);
    if (n == 0) continue;
    removed.push_back(*std::max_element(
        p, p + n, [](const BoxEntry& a, const BoxEntry& b) {
          return a.box.xu < b.box.xu;
        }));
  }
  // And empty one tile's class A completely.
  const auto [p, n] = grid.ClassSpan(std::size_t{27}, ObjectClass::kA);
  for (std::size_t k = 0; k < n; ++k) {
    if (std::none_of(removed.begin(), removed.end(), [&](const BoxEntry& e) {
          return e.id == p[k].id;
        })) {
      removed.push_back(p[k]);
    }
  }
  for (const BoxEntry& e : removed) {
    ASSERT_TRUE(grid.Delete(e.id, e.box));
    std::erase_if(data, [&](const BoxEntry& d) { return d.id == e.id; });
  }
  EXPECT_TRUE(grid.CheckInvariants());
  EXPECT_EQ(grid.ClassSpan(std::size_t{27}, ObjectClass::kA).second, 0u);
  EXPECT_FALSE(grid.class_a_extents()[27].IsEmpty());
  ExpectMatchesBruteForce(grid, data, 430, 30, "after deletes");
}

TEST(SkylineTest, MappedSnapshotDerivesExtentsThenThaws) {
  std::vector<BoxEntry> data = testing::RandomEntries(800, 0.05, 431);
  data.push_back(BoxEntry{Box{-3, 0.2, -2, 0.3}, 800});  // clamped
  TwoLayerGrid original(GridLayout(kUnit, 16, 16));
  original.Build(data);
  const std::string path = ::testing::TempDir() + "/skyline_extents.tlps";
  ASSERT_TRUE(original.Save(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, SnapshotReader::Mode::kMapped).ok());
  TwoLayerGrid mapped(GridLayout(kUnit, 1, 1));
  ASSERT_TRUE(mapped.LoadSnapshotSections(reader, /*mapped=*/true).ok());
  ASSERT_TRUE(mapped.frozen());
  EXPECT_TRUE(mapped.CheckInvariants());
  EXPECT_EQ(mapped.class_a_extents(), original.class_a_extents());
  ExpectMatchesBruteForce(mapped, data, 432, 20, "mapped");

  ASSERT_TRUE(mapped.Thaw().ok());
  EXPECT_EQ(mapped.class_a_extents(), original.class_a_extents());
  const BoxEntry road{Box{0.01, 0.6, 0.95, 0.61}, 801};
  mapped.Insert(road);
  data.push_back(road);
  EXPECT_TRUE(mapped.CheckInvariants());
  ExpectMatchesBruteForce(mapped, data, 433, 20, "thawed + insert");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tlp
