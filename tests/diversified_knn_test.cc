// Differential tests for diversified kNN (core/diversified_knn.h). The
// oracle reimplements both stages against the flat data array: the pool is
// the brute-force k nearest matching entries by (distance, id), and the
// greedy max-min re-ranker recomputes every min-distance from scratch each
// round using the same floating-point expressions as the implementation —
// so the comparison is bit-identical (EXPECT_EQ on entries, distances, and
// rank order), proving the incremental min maintenance changes nothing.

#include "core/diversified_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"

#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

// Operation-for-operation copy of the implementation's diversity metric.
Coord CenterDistance(const Box& a, const Box& b) {
  const Point ca = a.center();
  const Point cb = b.center();
  const Coord dx = ca.x - cb.x;
  const Coord dy = ca.y - cb.y;
  return std::sqrt(dx * dx + dy * dy);
}

std::vector<RankedEntry> BruteForcePool(const std::vector<BoxEntry>& data,
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

std::vector<RankedEntry> BruteForceDivKnn(const std::vector<BoxEntry>& data,
                                          const Point& q,
                                          const DivKnnOptions& opts,
                                          const EntryPredicate& keep = {}) {
  if (opts.k == 0) return {};
  const double lambda = std::clamp(opts.lambda, 0.0, 1.0);
  std::size_t fetch = opts.fetch == 0 ? 4 * opts.k : opts.fetch;
  if (fetch < opts.k) fetch = opts.k;
  const auto pool = BruteForcePool(data, q, fetch, keep);
  if (pool.empty()) return {};

  const std::size_t n = pool.size();
  const std::size_t want = std::min(opts.k, n);
  std::vector<bool> taken(n, false);
  std::vector<RankedEntry> out;
  std::size_t pick = 0;
  for (;;) {
    taken[pick] = true;
    out.push_back(pool[pick]);
    if (out.size() == want) break;
    std::size_t best = n;
    double best_score = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      // Full recomputation of the min over the selected set (the
      // implementation maintains it incrementally).
      Coord mind = std::numeric_limits<Coord>::infinity();
      for (std::size_t s = 0; s < n; ++s) {
        if (!taken[s]) continue;
        const Coord d =
            CenterDistance(pool[i].entry.box, pool[s].entry.box);
        if (d < mind) mind = d;
      }
      const double score =
          lambda * mind - (1.0 - lambda) * pool[i].distance;
      if (best == n || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    pick = best;
  }
  return out;
}

void ExpectNoDuplicateIds(const std::vector<RankedEntry>& v) {
  std::vector<ObjectId> ids;
  for (const RankedEntry& r : v) ids.push_back(r.entry.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate ids in diversified-kNN result";
}

TEST(DivKnnTest, MatchesBruteForceAcrossLambdas) {
  const auto data = testing::RandomEntries(700, 0.05, 516);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(data);
  Rng rng(517);
  for (const double lambda : {0.0, 0.3, 0.5, 0.8, 1.0}) {
    for (int t = 0; t < 8; ++t) {
      const Point q{rng.NextDouble(), rng.NextDouble()};
      DivKnnOptions opts;
      opts.k = 1 + rng.NextBelow(20);
      opts.lambda = lambda;
      const auto got = DiversifiedKnnQuery(grid, q, opts);
      EXPECT_EQ(got, BruteForceDivKnn(data, q, opts))
          << "lambda=" << lambda << " k=" << opts.k;
      ExpectNoDuplicateIds(got);
    }
  }
}

TEST(DivKnnTest, ExplicitFetchAndPredicateMatchOracle) {
  const auto data = testing::RandomEntries(500, 0.06, 518);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const EntryPredicate keep = [](const BoxEntry& e) {
    return e.id % 2 == 0;
  };
  Rng rng(519);
  for (int t = 0; t < 10; ++t) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    DivKnnOptions opts;
    opts.k = 5;
    opts.fetch = 3 + rng.NextBelow(40);  // values below k get raised to k
    opts.lambda = 0.6;
    EXPECT_EQ(DiversifiedKnnQuery(grid, q, opts, keep),
              BruteForceDivKnn(data, q, opts, keep))
        << "fetch=" << opts.fetch;
  }
}

TEST(DivKnnTest, LambdaZeroDegeneratesToKnnOrder) {
  const auto data = testing::RandomEntries(300, 0.05, 520);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.4, 0.6};
  DivKnnOptions opts;
  opts.k = 12;
  opts.lambda = 0.0;
  const auto got = DiversifiedKnnQuery(grid, q, opts);
  // score = -(distance): the greedy pass walks the pool in (distance, id)
  // order, i.e. plain kNN.
  EXPECT_EQ(got, BruteForcePool(data, q, 12));
}

TEST(DivKnnTest, HighLambdaPrefersSpread) {
  // A tight cluster of near boxes plus one farther, isolated box. Plain
  // kNN (k=2) returns two cluster members; with lambda close to 1 the
  // second pick must be the isolated box.
  std::vector<BoxEntry> data;
  for (ObjectId id = 0; id < 6; ++id) {
    const double x = 0.50 + 0.001 * static_cast<double>(id);
    data.push_back(BoxEntry{Box{x, 0.5, x + 0.0005, 0.5005}, id});
  }
  data.push_back(BoxEntry{Box{0.9, 0.9, 0.905, 0.905}, 6});
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.5, 0.5};

  DivKnnOptions opts;
  opts.k = 2;
  opts.fetch = 7;
  opts.lambda = 0.95;
  const auto got = DiversifiedKnnQuery(grid, q, opts);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].entry.id, 0u);  // nearest overall stays first
  EXPECT_EQ(got[1].entry.id, 6u);  // diversity pulls in the far box
  EXPECT_EQ(got, BruteForceDivKnn(data, q, opts));
}

TEST(DivKnnTest, PoolSmallerThanKReturnsEverything) {
  const auto data = testing::RandomEntries(8, 0.1, 521);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  DivKnnOptions opts;
  opts.k = 50;
  const auto got = DiversifiedKnnQuery(grid, Point{0.5, 0.5}, opts);
  EXPECT_EQ(got.size(), data.size());
  EXPECT_EQ(got, BruteForceDivKnn(data, Point{0.5, 0.5}, opts));
}

TEST(DivKnnTest, ZeroKAndEmptyGrid) {
  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  DivKnnOptions opts;
  opts.k = 3;
  EXPECT_TRUE(DiversifiedKnnQuery(empty, Point{0.5, 0.5}, opts).empty());

  const auto data = testing::RandomEntries(10, 0.1, 522);
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build(data);
  opts.k = 0;
  EXPECT_TRUE(DiversifiedKnnQuery(grid, Point{0.5, 0.5}, opts).empty());
  EXPECT_TRUE(KnnEntries(grid, Point{0.5, 0.5}, 0).empty());
}

TEST(DivKnnTest, OutOfRangeLambdaIsClamped) {
  const auto data = testing::RandomEntries(120, 0.05, 523);
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(data);
  const Point q{0.3, 0.3};
  DivKnnOptions lo, hi;
  lo.k = hi.k = 6;
  lo.lambda = -2.5;
  hi.lambda = 9.0;
  DivKnnOptions lo_c = lo, hi_c = hi;
  lo_c.lambda = 0.0;
  hi_c.lambda = 1.0;
  EXPECT_EQ(DiversifiedKnnQuery(grid, q, lo),
            DiversifiedKnnQuery(grid, q, lo_c));
  EXPECT_EQ(DiversifiedKnnQuery(grid, q, hi),
            DiversifiedKnnQuery(grid, q, hi_c));
}

}  // namespace
}  // namespace tlp
