#include "core/knn.h"

#include <algorithm>

#include "gtest/gtest.h"

#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

std::vector<RankedEntry> BruteForceKnn(const std::vector<BoxEntry>& data,
                                       const Point& q, std::size_t k,
                                       const EntryPredicate& keep = {}) {
  std::vector<RankedEntry> all;
  for (const BoxEntry& e : data) {
    if (keep && !keep(e)) continue;
    all.push_back(RankedEntry{e, e.box.MinDistanceTo(q)});
  }
  std::sort(all.begin(), all.end(),
            [](const RankedEntry& a, const RankedEntry& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.entry.id < b.entry.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(KnnTest, MatchesBruteForceOnRandomData) {
  const auto data = testing::RandomEntries(800, 0.05, 171);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(172);
  for (int t = 0; t < 30; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const std::size_t k = 1 + rng.NextBelow(50);
    EXPECT_EQ(KnnEntries(grid, q, k), BruteForceKnn(data, q, k))
        << "q=(" << q.x << "," << q.y << ") k=" << k;
  }
}

TEST(KnnTest, KLargerThanDatasetReturnsEverything) {
  const auto data = testing::RandomEntries(20, 0.1, 173);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const auto res = KnnEntries(grid, Point{0.5, 0.5}, 100);
  EXPECT_EQ(res.size(), data.size());
  EXPECT_EQ(res, BruteForceKnn(data, Point{0.5, 0.5}, 100));
}

TEST(KnnTest, ZeroKAndEmptyGrid) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  EXPECT_TRUE(KnnEntries(empty, Point{0.5, 0.5}, 3).empty());
  const auto data = testing::RandomEntries(10, 0.1, 174);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  EXPECT_TRUE(KnnEntries(grid, Point{0.5, 0.5}, 0).empty());
}

TEST(KnnTest, QueryOutsideDomain) {
  const auto data = testing::RandomEntries(300, 0.05, 175);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const Point q{-0.5, 1.5};
  EXPECT_EQ(KnnEntries(grid, q, 10), BruteForceKnn(data, q, 10));
}

TEST(KnnTest, NearestContainingObjectHasDistanceZero) {
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build({BoxEntry{Box{0.2, 0.2, 0.8, 0.8}, 0},
              BoxEntry{Box{0.9, 0.9, 0.95, 0.95}, 1}});
  const auto res = KnnEntries(grid, Point{0.5, 0.5}, 1);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].entry.id, 0u);
  EXPECT_EQ(res[0].distance, 0.0);
}

/// Forces several radius doublings: all data sits in a far corner cluster
/// while the query is at the opposite corner, so the seed radius (a few
/// tiles wide) finds nothing and the annulus probing has to walk out to the
/// cluster. The incremental candidate accumulation across doublings must
/// still match the brute-force oracle exactly.
TEST(KnnTest, ManyRadiusDoublingsMatchOracle) {
  Rng rng(177);
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 400; ++k) {
    const double x = 0.9 + rng.NextDouble() * 0.1;
    const double y = 0.9 + rng.NextDouble() * 0.1;
    data.push_back(BoxEntry{Box{x, y, std::min(1.0, x + 0.005),
                                std::min(1.0, y + 0.005)},
                            static_cast<ObjectId>(k)});
  }
  // A fine grid keeps the seed radius tiny relative to the query-cluster
  // gap, guaranteeing multiple misses before candidates appear.
  TwoLayerGrid grid(GridLayout(kUnit, 64, 64));
  grid.Build(data);
  const Point q{0.01, 0.01};
  for (std::size_t k : {1u, 7u, 50u, 400u}) {
    EXPECT_EQ(KnnEntries(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
  }
}

/// The annulus form of DiskQueryEntries must report exactly the objects
/// with min_radius < MinDistanceTo(q) <= radius, and appending successive
/// annuli must reproduce the full disk (KnnEntries' accumulation pattern).
TEST(KnnTest, DiskQueryEntriesAnnulusMatchesOracle) {
  const auto data = testing::RandomEntries(1200, 0.04, 178);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(179);
  for (int t = 0; t < 20; ++t) {
    const Point q{rng.NextDouble() * 1.4 - 0.2, rng.NextDouble() * 1.4 - 0.2};
    const Coord inner = rng.NextDouble() * 0.3;
    const Coord outer = inner + rng.NextDouble() * 0.4;

    std::vector<ObjectId> expected;
    for (const BoxEntry& e : data) {
      const Coord d = e.box.MinDistanceTo(q);
      if (d > inner && d <= outer) expected.push_back(e.id);
    }
    std::vector<BoxEntry> got;
    grid.DiskQueryEntries(q, outer, &got, inner);
    std::vector<ObjectId> ids;
    for (const BoxEntry& e : got) ids.push_back(e.id);
    testing::ExpectSameIdSet(expected, ids, "annulus");

    // Accumulating inner disk + annulus == one full-disk query.
    std::vector<BoxEntry> accumulated;
    grid.DiskQueryEntries(q, inner, &accumulated);
    grid.DiskQueryEntries(q, outer, &accumulated, inner);
    std::vector<BoxEntry> full;
    grid.DiskQueryEntries(q, outer, &full);
    std::vector<ObjectId> acc_ids, full_ids;
    for (const BoxEntry& e : accumulated) acc_ids.push_back(e.id);
    for (const BoxEntry& e : full) full_ids.push_back(e.id);
    testing::ExpectSameIdSet(full_ids, acc_ids, "inner disk + annulus");
  }
}

/// Regression: the grid clamps entries lying outside the declared domain
/// into border tiles, but the doubling loop's stop radius is derived from
/// the DOMAIN corners — it used to terminate there with fewer than k
/// candidates and silently return a short (or empty) answer. A final
/// infinite-radius annulus probe must pick up the far-out entries.
TEST(KnnTest, EntriesOutsideDomainAreStillFound) {
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 10; ++k) {
    const double x = 50.0 + static_cast<double>(k);
    data.push_back(
        BoxEntry{Box{x, 40.0, x + 0.5, 40.5}, static_cast<ObjectId>(k)});
  }
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};  // max_radius from the unit domain is ~1; data ~65
  for (const std::size_t k : {1u, 5u, 10u}) {
    EXPECT_EQ(KnnEntries(grid, q, k), BruteForceKnn(data, q, k)) << "k=" << k;
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
      EXPECT_EQ(KnnEntries(grid, q, k), BruteForceKnn(data, q, k))
          << "q=(" << q.x << "," << q.y << ") k=" << k;
    }
  }
}

TEST(KnnTest, ResultsAreSortedByDistance) {
  const auto data = testing::RandomEntries(500, 0.02, 176);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  const auto res = KnnEntries(grid, Point{0.3, 0.7}, 40);
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
    EXPECT_EQ(KnnEntries(grid, q, k), BruteForceKnn(data, q, k))
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
    const auto got = KnnEntries(grid, q, k, keep);
    EXPECT_EQ(got, BruteForceKnn(data, q, k, keep));
    // k nearest MATCHING objects, not matching members of the top-k: with
    // 1-in-5 selectivity the k matching results reach far beyond the
    // unrestricted k-th distance.
    for (const RankedEntry& r : got) EXPECT_EQ(r.entry.id % 5, 0u);
  }
}

TEST(KnnEntriesTest, PredicateMatchingOnlyOutOfDomainEntries) {
  // Only entries clamped outside the domain satisfy the predicate, so the
  // doubling loop must run past the domain-derived stop radius into the
  // final infinite-radius probe to find them.
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
  const auto got = KnnEntries(grid, Point{0.5, 0.5}, 4, far_only);
  EXPECT_EQ(got, BruteForceKnn(data, Point{0.5, 0.5}, 4, far_only));
  ASSERT_EQ(got.size(), 4u);
}

}  // namespace
}  // namespace tlp
