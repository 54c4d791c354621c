#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gtest/gtest.h"

#include "common/query_stats.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

/// Brute-force oracle. NaN rule (knn.h): a box with a NaN coordinate, or at
/// a NaN distance, is never a result.
std::vector<RankedEntry> BruteForceKnn(const std::vector<BoxEntry>& data,
                                       const Point& q, std::size_t k,
                                       const EntryPredicate& keep = {}) {
  std::vector<RankedEntry> all;
  for (const BoxEntry& e : data) {
    if (keep && !keep(e)) continue;
    const Coord d = e.box.MinDistanceTo(q);
    if (std::isnan(d) || std::isnan(e.box.xl) || std::isnan(e.box.yl) ||
        std::isnan(e.box.xu) || std::isnan(e.box.yu)) {
      continue;
    }
    all.push_back(RankedEntry{e, d});
  }
  const std::size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n),
                    all.end(), [](const RankedEntry& a, const RankedEntry& b) {
                      return a.distance != b.distance
                                 ? a.distance < b.distance
                                 : a.entry.id < b.entry.id;
                    });
  all.resize(n);
  return all;
}

/// KnnEntries, checked to produce no duplicate after the fact: the walk's
/// emit rule reports each object from one tile (posthoc_dedup == 0).
std::vector<RankedEntry> Knn(const TwoLayerGrid& grid, const Point& q,
                             std::size_t k, const EntryPredicate& keep = {}) {
  ResetQueryStats();
  std::vector<RankedEntry> got = KnnEntries(grid, q, k, keep);
  EXPECT_EQ(GetQueryStats().posthoc_dedup, 0u);
  EXPECT_EQ(GetQueryStats().queries, 1u);
  return got;
}

TEST(KnnTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(800, 0.05, 171);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(172);
  for (int t = 0; t < 30; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const std::size_t k = 1 + rng.NextBelow(50);
    EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k))
        << "q=(" << q.x << "," << q.y << ") k=" << k;
  }
}

TEST(KnnTest, KLargerThanDatasetReturnsEverything) {
  const auto data = testing::RandomEntries(20, 0.1, 173);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const auto res = Knn(grid, Point{0.5, 0.5}, 100);
  EXPECT_EQ(res.size(), data.size());
  EXPECT_EQ(res, BruteForceKnn(data, Point{0.5, 0.5}, 100));
}

TEST(KnnTest, ZeroKAndEmptyGrid) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  EXPECT_TRUE(Knn(empty, Point{0.5, 0.5}, 3).empty());
  const auto data = testing::RandomEntries(10, 0.1, 174);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  EXPECT_TRUE(Knn(grid, Point{0.5, 0.5}, 0).empty());
}

TEST(KnnTest, QueryOutsideDomain) {
  const auto data = testing::RandomEntries(300, 0.05, 175);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point q{-0.5, 1.5};
  EXPECT_EQ(Knn(grid, q, 10), BruteForceKnn(data, q, 10));
}

TEST(KnnTest, NearestContainingObjectHasDistanceZero) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build({BoxEntry{Box{0.2, 0.2, 0.8, 0.8}, 0},
              BoxEntry{Box{0.9, 0.9, 0.95, 0.95}, 1}});
  const auto res = Knn(grid, Point{0.5, 0.5}, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].entry.id, 0u);
  EXPECT_EQ(res[0].distance, 0.0);
}

/// All data sits in a far corner cluster while the query is at the opposite
/// corner, so the tile walk crosses dozens of empty rings before its first
/// candidate and must keep going until the cluster's k-th distance is
/// covered. Still exactly the brute-force answer.
TEST(KnnTest, FarClusterAcrossEmptyRingsMatchesOracle) {
  Rng rng(177);
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 400; ++k) {
    const double x = 0.9 + rng.NextDouble() * 0.1;
    const double y = 0.9 + rng.NextDouble() * 0.1;
    data.push_back(BoxEntry{Box{x, y, std::min(1.0, x + 0.005),
                                std::min(1.0, y + 0.005)},
                            static_cast<ObjectId>(k)});
  }
  // A fine grid: ~58 empty rings lie between the query and the cluster.
  TwoLayerGrid grid(GridLayout(kUnit, 64, 64));
  grid.Build(data);
  const Point q{0.01, 0.01};
  for (std::size_t k : {1u, 7u, 50u, 400u}) {
    EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
}

/// Regression: the grid clamps entries lying outside the declared domain
/// into border tiles, far beyond any distance the domain alone suggests (a
/// stop rule derived from the domain corners once returned a short answer
/// here). Border tiles extend to infinity in the walk's bounds, so the far
/// entries are still found.
TEST(KnnTest, EntriesOutsideDomainAreStillFound) {
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 10; ++k) {
    const double x = 50.0 + static_cast<double>(k);
    data.push_back(
        BoxEntry{Box{x, 40.0, x + 0.5, 40.5}, static_cast<ObjectId>(k)});
  }
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};  // the domain spans ~1; the data sits ~65 away
  for (const std::size_t k : {1u, 5u, 10u}) {
    EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
}

TEST(KnnTest, MixedInAndOutOfDomainEntriesMatchOracle) {
  auto data = testing::RandomEntries(100, 0.05, 180);
  const Box outliers[] = {Box{-30, 0.2, -29, 0.4}, Box{0.3, 77, 0.4, 78},
                          Box{12, -9, 13, -8}, Box{-5, -5, -4.5, -4.5}};
  ObjectId next = 100;
  for (const Box& b : outliers) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point queries[] = {Point{0.5, 0.5}, Point{-2, -2}, Point{40, 40}};
  for (const Point& q : queries) {
    // k > in-domain count forces the probe past the domain bound; k equal
    // to the full dataset must return every entry.
    for (const std::size_t k : {5u, 101u, 104u}) {
      EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k))
          << "q=(" << q.x << "," << q.y << ") k=" << k;
    }
  }
}

/// Entries registered in the tiles whose box lies within `reach` of `q`:
/// what a walk that stops at the k-th distance may scan, plus one ring.
std::uint64_t EntriesInTilesWithin(const TwoLayerGrid& grid, const Point& q,
                                   Coord reach) {
  const GridLayout& g = grid.layout();
  std::uint64_t n = 0;
  for (std::uint32_t j = 0; j < g.ny(); ++j) {
    for (std::uint32_t i = 0; i < g.nx(); ++i) {
      if (g.TileBox(i, j).MinDistanceTo(q) <= reach) {
        n += grid.TileEntryCount(g.TileId(i, j));
      }
    }
  }
  return n;
}

/// A dense cluster (>= 1k entries per tile): the walk scans only the tiles
/// within the k-th distance of q, bounded here by one tile diagonal more.
/// A density-blind search radius scans a wide block of cluster tiles.
TEST(KnnTest, DenseClusterScansOnlyNearbyTiles) {
  Rng rng(181);
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 100000; ++k) {
    const double x = 0.3 + rng.NextDouble() * 0.15;
    const double y = 0.3 + rng.NextDouble() * 0.15;
    data.push_back(BoxEntry{Box{x, y, x + rng.NextDouble() * 0.002,
                                y + rng.NextDouble() * 0.002},
                            static_cast<ObjectId>(k)});
  }
  TwoLayerGrid grid(GridLayout(kUnit, 64, 64));
  grid.Build(data);
  const std::size_t t = grid.layout().TileId(grid.layout().TileOf({0.4, 0.4}));
  ASSERT_GE(grid.TileEntryCount(t), 1000u);
  const Coord diagonal = std::hypot(1.0 / 64, 1.0 / 64);
  // Most of the cluster fails the predicate: the k matching entries lie
  // farther out, and the bound follows their k-th distance.
  const EntryPredicate rare = [](const BoxEntry& e) { return e.id % 97 == 0; };
  for (int s = 0; s < 20; ++s) {
    const Point q{0.31 + rng.NextDouble() * 0.13,
                  0.31 + rng.NextDouble() * 0.13};
    for (const std::size_t k : {1u, 10u, 32u}) {
      for (const EntryPredicate& keep : {EntryPredicate{}, rare}) {
        const auto got = Knn(grid, q, k, keep);
        const std::uint64_t scanned = GetQueryStats().scanned_total();
        ASSERT_EQ(got, BruteForceKnn(data, q, k, keep))
            << "q=(" << q.x << "," << q.y << ") k=" << k;
        ASSERT_EQ(got.size(), k);
        EXPECT_LE(scanned,
                  EntriesInTilesWithin(grid, q, got.back().distance + diagonal))
            << "q=(" << q.x << "," << q.y << ") k=" << k
            << (keep ? " rare" : "");
      }
    }
  }
}

/// Equal distances across tile borders: points and boxes exactly on shared
/// tile edges and corners, at distances that tie across several tiles, with
/// ids shuffled so the id tie-break decides every cut of k. The 10x10 and
/// 3x3 grids put tile edges on coordinates that are not exact in binary,
/// where ColumnOf's edges and TileOrigin differ by rounding.
TEST(KnnTest, TiesAcrossTileBordersBreakById) {
  for (const std::uint32_t dim : {4u, 10u, 3u}) {
    const double step = 1.0 / dim;
    std::vector<BoxEntry> data;
    Rng rng(182 + dim);
    auto add = [&](const Box& b) {
      data.push_back(BoxEntry{b, static_cast<ObjectId>(data.size())});
    };
    for (std::uint32_t a = 0; a <= dim; ++a) {
      for (std::uint32_t b = 0; b <= dim; ++b) {
        const double x = a * step;
        const double y = b * step;
        add(Box{x, y, x, y});                     // tile corner
        add(Box{x, y + step / 2, x, y + step / 2});  // edge midpoint
        add(Box{x - step / 4, y, x + step / 4, y});  // straddles an edge
      }
    }
    // Shuffle the ids so that neither insertion order nor tile order
    // matches the tie-break.
    for (std::size_t k = data.size(); k > 1; --k) {
      std::swap(data[k - 1].id, data[rng.NextBelow(k)].id);
    }
    TwoLayerGrid grid(GridLayout(kUnit, dim, dim));
    grid.Build(data);
    for (std::uint32_t a = 0; a <= dim; ++a) {
      for (std::uint32_t b = 0; b <= dim; b += 2) {
        const Point q{a * step, b * step + (a % 2) * step / 2};
        for (std::size_t k = 1; k <= 30; k += 1 + k / 4) {
          ASSERT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k))
              << "dim=" << dim << " q=(" << q.x << "," << q.y << ") k=" << k;
        }
      }
    }
  }
}

/// The stop rule's slack: on a 10x10 unit grid ColumnOf puts x = 0.3 in
/// column 3, whose TileOrigin is 3 * 0.1 = 0.30000000000000004. Column 3's
/// bound from q.x = 0.2 is then 0.10000000000000003, above both the entry
/// at x = 0.3 (distance 0.09999999999999998) and the one at x = 0.1
/// (distance 0.1). Without the slack the walk stops with the wrong nearest.
TEST(KnnTest, StopRuleCoversRoundingAtTileEdges) {
  const std::vector<BoxEntry> data = {
      BoxEntry{Box{0.1, 0.05, 0.1, 0.05}, 0},
      BoxEntry{Box{0.3, 0.05, 0.3, 0.05}, 1}};
  TwoLayerGrid grid(GridLayout(kUnit, 10, 10));
  grid.Build(data);
  ASSERT_EQ(grid.layout().ColumnOf(0.3), 3u);
  ASSERT_GT(grid.layout().TileOrigin(3, 0).x, 0.3);
  const Point q{0.2, 0.05};
  for (const std::size_t k : {1u, 2u}) {
    EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
  EXPECT_EQ(Knn(grid, q, 1).at(0).entry.id, 1u);
}

/// Entries partly or wholly outside the domain in every direction: the
/// grid clamps them into border tiles they do not overlap. Queries inside,
/// on the border of and far outside the domain (beyond the clamped
/// entries too) must still be answered exactly.
TEST(KnnTest, ClampedOutOfDomainEntriesInsideAndOutsideQueries) {
  auto data = testing::RandomEntries(400, 0.05, 183);
  Rng rng(184);
  for (ObjectId id = 1000; id < 1200; ++id) {
    const double x = rng.NextDouble() * 6 - 2.5;
    const double y = rng.NextDouble() * 6 - 2.5;
    data.push_back(
        BoxEntry{Box{x, y, x + rng.NextDouble(), y + rng.NextDouble()}, id});
  }
  TwoLayerGrid grid(GridLayout(kUnit, 12, 12));
  grid.Build(data);
  const Point queries[] = {{0.5, 0.5}, {0, 0},   {1, 0.5},  {-1, 0.5},
                           {0.5, 3},   {4, -4},  {-10, 9},  {0.99, 1.01},
                           {1e6, 0.2}, {0.3, -1e9}};
  for (const Point& q : queries) {
    for (const std::size_t k : {1u, 9u, 60u, 599u, 600u, 700u}) {
      ASSERT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k))
          << "q=(" << q.x << "," << q.y << ") k=" << k;
    }
  }
}

/// NaN rule (knn.h): a box with a NaN coordinate is never a result, even
/// where MinDistanceTo ignores it (a NaN upper corner), and a query point
/// with a NaN coordinate has no results at all. k beyond the number of
/// regular objects returns exactly the regular ones.
TEST(KnnTest, NanBoxesAreNeverResults) {
  constexpr Coord nan = std::numeric_limits<Coord>::quiet_NaN();
  auto data = testing::RandomEntries(200, 0.05, 185);
  const Box nan_boxes[] = {
      Box{nan, 0.5, 0.6, 0.6},  Box{0.5, nan, 0.6, 0.6},
      Box{0.02, 0.5, nan, 0.6}, Box{0.5, 0.02, 0.6, nan},
      Box{nan, nan, nan, nan},  Box{0.01, 0.01, nan, nan}};
  ObjectId next = 500;
  for (const Box& b : nan_boxes) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  for (const Point& q : {Point{0.5, 0.55}, Point{0.03, 0.03}, Point{2, -1}}) {
    for (const std::size_t k : {1u, 5u, 200u, 206u, 1000u}) {
      const auto got = Knn(grid, q, k);
      ASSERT_EQ(got, BruteForceKnn(data, q, k))
          << "q=(" << q.x << "," << q.y << ") k=" << k;
      EXPECT_EQ(got.size(), std::min<std::size_t>(k, 200));
      for (const RankedEntry& r : got) EXPECT_LT(r.entry.id, 500u);
    }
  }
  EXPECT_TRUE(Knn(grid, Point{nan, 0.5}, 10).empty());
  EXPECT_TRUE(Knn(grid, Point{0.5, nan}, 10).empty());
}

TEST(KnnTest, ResultsAreSortedByDistance) {
  const auto data = testing::RandomEntries(500, 0.02, 176);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const auto res = Knn(grid, Point{0.3, 0.7}, 40);
  ASSERT_EQ(res.size(), 40u);
  for (std::size_t k = 1; k < res.size(); ++k) {
    EXPECT_LE(res[k - 1].distance, res[k].distance);
  }
}

TEST(KnnEntriesTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(800, 0.05, 511);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(512);
  for (int t = 0; t < 25; ++t) {
    const Point q{rng.NextDouble() * 1.6 - 0.3, rng.NextDouble() * 1.6 - 0.3};
    const std::size_t k = 1 + rng.NextBelow(60);
    EXPECT_EQ(Knn(grid, q, k), BruteForceKnn(data, q, k))
        << "q=(" << q.x << "," << q.y << ") k=" << k;
  }
}

TEST(KnnEntriesTest, PredicateCountsOnlyMatchingCandidates) {
  const auto data = testing::RandomEntries(600, 0.05, 513);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.id % 5 == 0;
  };
  Rng rng(514);
  for (int t = 0; t < 15; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const std::size_t k = 1 + rng.NextBelow(30);
    const auto got = Knn(grid, q, k, keep);
    EXPECT_EQ(got, BruteForceKnn(data, q, k, keep));
    // k nearest MATCHING objects, not matching members of the top-k: with
    // 1-in-5 selectivity the k matching results reach far beyond the
    // unrestricted k-th distance.
    for (const RankedEntry& r : got) EXPECT_EQ(r.entry.id % 5, 0u);
  }
}

TEST(KnnEntriesTest, PredicateMatchingOnlyOutOfDomainEntries) {
  // Only entries clamped outside the domain satisfy the predicate, so the
  // walk must cover every tile, border tiles to infinity, to find them.
  auto data = testing::RandomEntries(100, 0.05, 515);
  const Box outliers[] = {Box{-30, 0.2, -29, 0.4}, Box{0.3, 77, 0.4, 78},
                          Box{12, -9, 13, -8}, Box{-5, -5, -4.5, -4.5}};
  ObjectId next = 100;
  for (const Box& b : outliers) data.push_back(BoxEntry{b, next++});
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const EntryPredicate far_only = [](const BoxEntry& e) {
    return e.id >= 100;
  };
  const auto got = Knn(grid, Point{0.5, 0.5}, 4, far_only);
  EXPECT_EQ(got, BruteForceKnn(data, Point{0.5, 0.5}, 4, far_only));
  ASSERT_EQ(got.size(), 4u);
}

}  // namespace
}  // namespace tlp
