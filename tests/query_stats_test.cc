// The query-statistics layer turns the paper's counting claims into checked
// invariants: the 2-layer indices never generate a duplicate result (Lemmas
// 1-4 => posthoc_dedup == 0 and duplicates_avoided > 0 on multi-tile
// objects), while the 1-layer baselines generate duplicates and eliminate
// them after the fact (posthoc_dedup > 0). Also covers comparison counting
// (Table II), per-thread merging through BatchExecutor, refinement hit/miss
// accounting, and exact per-segment counts on hand-built grids, including
// the bulk-append and vector paths every build runs.

#include "common/query_stats.h"

#include <algorithm>

#include "gtest/gtest.h"

#include "batch/batch_executor.h"
#include "core/refinement.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/tiger_like.h"
#include "grid/one_layer_grid.h"
#include "tests/test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};

/// Entries with large extents so most objects span several tiles of an 8x8
/// grid — the regime where replication (and thus duplicate handling) matters.
std::vector<BoxEntry> MultiTileEntries() {
  return testing::RandomEntries(600, 0.3, 91, /*point_fraction=*/0.0);
}

std::vector<Box> MultiTileWindows() { return testing::RandomWindows(80, 92); }

class EnabledQueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetQueryStats(); }
};

TEST_F(EnabledQueryStatsTest, TwoLayerAvoidsDuplicatesByConstruction) {
  const auto entries = MultiTileEntries();
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  const auto windows = MultiTileWindows();
  for (const Box& w : windows) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  // Lemmas 1-4 as invariants: replicas are skipped up front, never
  // generated-then-eliminated.
  EXPECT_EQ(s.posthoc_dedup, 0u);
  EXPECT_GT(s.duplicates_avoided, 0u);
  EXPECT_EQ(s.queries, windows.size());
  EXPECT_GT(s.tiles_visited, 0u);
  EXPECT_GT(s.comparisons, 0u);
  EXPECT_GT(s.candidates, 0u);
  EXPECT_EQ(s.query_seconds, 0.0);  // the core reads no clock
  // Two-layer scans are classed; the flat counter belongs to 1-layer tiles.
  EXPECT_GT(s.scanned_class[0], 0u);  // class A always scanned
  EXPECT_EQ(s.scanned_flat, 0u);
}

TEST_F(EnabledQueryStatsTest, OneLayerHashReportsPosthocDedup) {
  const auto entries = MultiTileEntries();
  OneLayerGrid grid(GridLayout(kUnit, 8, 8), DedupPolicy::kHash);
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  // The hash baseline generates duplicate results and pays to remove them.
  EXPECT_GT(s.posthoc_dedup, 0u);
  // A flat grid has no classes to skip, so it can never avoid a replica.
  EXPECT_EQ(s.duplicates_avoided, 0u);
  EXPECT_GT(s.scanned_flat, 0u);
  EXPECT_EQ(s.scanned_class[0] + s.scanned_class[1] + s.scanned_class[2] +
                s.scanned_class[3],
            0u);
}

TEST_F(EnabledQueryStatsTest, OneLayerReferencePointReportsPosthocDedup) {
  const auto entries = MultiTileEntries();
  OneLayerGrid grid(GridLayout(kUnit, 8, 8), DedupPolicy::kReferencePoint);
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  // Reference-point dedup also finds every duplicate copy first and then
  // discards all but one — post-hoc elimination, merely cheaper per copy.
  EXPECT_GT(GetQueryStats().posthoc_dedup, 0u);
}

TEST_F(EnabledQueryStatsTest, TwoLayerExecutesNoMoreComparisonsThanOneLayer) {
  // Table II, measured: on an identical layout and workload the 2-layer
  // evaluation executes at most as many endpoint comparisons as the 1-layer
  // baseline, because it scans fewer replicas under weaker masks.
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerGrid two(layout);
  two.Build(entries);
  OneLayerGrid one(layout, DedupPolicy::kReferencePoint);
  one.Build(entries);
  const auto windows = MultiTileWindows();

  std::vector<ObjectId> out;
  for (const Box& w : windows) two.WindowQuery(w, &out);
  const std::uint64_t two_cmp = GetQueryStats().comparisons;
  const std::uint64_t two_scanned = GetQueryStats().scanned_total();

  ResetQueryStats();
  out.clear();
  for (const Box& w : windows) one.WindowQuery(w, &out);
  const std::uint64_t one_cmp = GetQueryStats().comparisons;
  const std::uint64_t one_scanned = GetQueryStats().scanned_total();

  EXPECT_LE(two_cmp, one_cmp);
  EXPECT_LE(two_scanned, one_scanned);
}

TEST_F(EnabledQueryStatsTest, TwoLayerPlusCountsBinarySearchProbes) {
  const auto entries = MultiTileEntries();
  TwoLayerPlusGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  for (const Box& w : MultiTileWindows()) {
    testing::CheckWindowAgainstBruteForce(grid, entries, w);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_GT(s.binary_search_probes, 0u);
  EXPECT_GT(s.duplicates_avoided, 0u);
  EXPECT_EQ(s.posthoc_dedup, 0u);
}

TEST_F(EnabledQueryStatsTest, DiskQueriesFollowTheSameDuplicateContract) {
  const auto entries = MultiTileEntries();
  const GridLayout layout(kUnit, 8, 8);
  TwoLayerGrid two(layout);
  two.Build(entries);
  OneLayerGrid one_hash(layout, DedupPolicy::kHash);
  one_hash.Build(entries);

  Rng rng(93);
  std::vector<ObjectId> out;
  for (int k = 0; k < 40; ++k) {
    testing::CheckDiskAgainstBruteForce(
        two, entries, Point{rng.NextDouble(), rng.NextDouble()},
        0.1 + rng.NextDouble() * 0.3);
  }
  const QueryStats two_stats = GetQueryStats();
  EXPECT_EQ(two_stats.posthoc_dedup, 0u);
  EXPECT_GT(two_stats.duplicates_avoided, 0u);

  ResetQueryStats();
  Rng rng2(93);
  for (int k = 0; k < 40; ++k) {
    out.clear();
    one_hash.DiskQuery(Point{rng2.NextDouble(), rng2.NextDouble()},
                       0.1 + rng2.NextDouble() * 0.3, &out);
  }
  EXPECT_GT(GetQueryStats().posthoc_dedup, 0u);
}

TEST_F(EnabledQueryStatsTest, BatchExecutorMergesWorkerStatsOnWait) {
  const auto entries = MultiTileEntries();
  TwoLayerGrid grid(GridLayout(kUnit, 8, 8));
  grid.Build(entries);
  const auto windows = MultiTileWindows();

  BatchExecutor::RunQueriesBased(grid, windows, /*num_threads=*/1);
  const QueryStats sequential = GetQueryStats();
  ASSERT_GT(sequential.tiles_visited, 0u);

  // Same workload on 4 workers: every counter the workers accumulate must be
  // merged back into the caller, giving identical batch-wide totals.
  ResetQueryStats();
  BatchExecutor::RunQueriesBased(grid, windows, /*num_threads=*/4);
  const QueryStats threaded = GetQueryStats();
  EXPECT_EQ(threaded.tiles_visited, sequential.tiles_visited);
  EXPECT_EQ(threaded.candidates, sequential.candidates);
  EXPECT_EQ(threaded.comparisons, sequential.comparisons);
  EXPECT_EQ(threaded.duplicates_avoided, sequential.duplicates_avoided);

  // Tiles-based regrouping evaluates the same (tile, query) subtasks.
  ResetQueryStats();
  BatchExecutor::RunTilesBased(grid, windows, /*num_threads=*/4);
  const QueryStats tiles_based = GetQueryStats();
  EXPECT_EQ(tiles_based.tiles_visited, sequential.tiles_visited);
  EXPECT_EQ(tiles_based.candidates, sequential.candidates);
}

TEST_F(EnabledQueryStatsTest, RefinementCountsHitsAndMisses) {
  TigerConfig config;
  config.flavor = TigerFlavor::kTiger;
  config.cardinality = 3000;
  config.seed = 94;
  const GeometryStore store = GenerateTigerLike(config);
  TwoLayerGrid grid(GridLayout(kUnit, 16, 16));
  grid.Build(store.AllEntries());
  RefinementEngine engine(grid, store);

  ResetQueryStats();
  std::vector<ObjectId> out;
  for (const Box& w : testing::RandomWindows(30, 95)) {
    out.clear();
    engine.WindowQueryExact(w, RefinementMode::kRefAvoid, &out);
  }
  // Lemma 5 secondary filtering accepts candidates without the exact test.
  // (Window misses need an object straddling a window *corner* — too rare
  // with TIGER-like tiny objects to assert on; disks cover misses below.)
  EXPECT_GT(GetQueryStats().refine_hits, 0u);

  // Disk queries: objects straddling the circular boundary fail the
  // two-corner guarantee, so both hits and misses occur.
  ResetQueryStats();
  Rng rng(97);
  for (int k = 0; k < 30; ++k) {
    out.clear();
    engine.DiskQueryExact(Point{rng.NextDouble(), rng.NextDouble()},
                          0.05 + rng.NextDouble() * 0.2,
                          RefinementMode::kRefAvoid, &out);
  }
  const QueryStats s = GetQueryStats();
  EXPECT_GT(s.refine_hits, 0u);
  EXPECT_GT(s.refine_misses, 0u);

  // Simple mode refines everything: no hits by definition.
  ResetQueryStats();
  for (const Box& w : testing::RandomWindows(10, 96)) {
    out.clear();
    engine.WindowQueryExact(w, RefinementMode::kSimple, &out);
  }
  EXPECT_EQ(GetQueryStats().refine_hits, 0u);
  EXPECT_GT(GetQueryStats().refine_misses, 0u);
}

TEST_F(EnabledQueryStatsTest, JsonSnapshotCarriesTheSchema) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Insert(BoxEntry{Box{0.3, 0.3, 0.7, 0.7}, 1});
  std::vector<ObjectId> out;
  grid.WindowQuery(kUnit, &out);
  const std::string json = GetQueryStats().ToJson("unit");
  EXPECT_NE(json.find("\"label\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"tiles_visited\""), std::string::npos);
  EXPECT_NE(json.find("\"duplicates_avoided\""), std::string::npos);
  EXPECT_NE(json.find("\"posthoc_dedup\""), std::string::npos);
}

/// Every counter of `s` against its expected value; query_seconds stays 0
/// because the core reads no clock.
struct ExpectedStats {
  std::uint64_t tiles_visited = 0;
  std::uint64_t scanned_a = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t binary_search_probes = 0;
  std::uint64_t duplicates_avoided = 0;
  std::uint64_t candidates = 0;
};

void ExpectExactStats(const QueryStats& s, const ExpectedStats& want) {
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.tiles_visited, want.tiles_visited);
  EXPECT_EQ(s.scanned_class[0], want.scanned_a);
  EXPECT_EQ(s.scanned_class[1], 0u);
  EXPECT_EQ(s.scanned_class[2], 0u);
  EXPECT_EQ(s.scanned_class[3], 0u);
  EXPECT_EQ(s.scanned_flat, 0u);
  EXPECT_EQ(s.comparisons, want.comparisons);
  EXPECT_EQ(s.binary_search_probes, want.binary_search_probes);
  EXPECT_EQ(s.duplicates_avoided, want.duplicates_avoided);
  EXPECT_EQ(s.posthoc_dedup, 0u);
  EXPECT_EQ(s.candidates, want.candidates);
  EXPECT_EQ(s.refine_hits, 0u);
  EXPECT_EQ(s.refine_misses, 0u);
  EXPECT_EQ(s.query_seconds, 0.0);
}

std::vector<ObjectId> SortedWindow(const SpatialIndex& index, const Box& w) {
  std::vector<ObjectId> out;
  index.WindowQuery(w, &out);
  std::sort(out.begin(), out.end());
  return out;
}

// 4x4 tiles of side 0.25; W covers tile columns and rows 0..2, so tile
// (1, 1) is interior and takes the bulk-append path.
TEST_F(EnabledQueryStatsTest, ExactCountsInteriorTileBulkAppend) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build({
      BoxEntry{Box{0.30, 0.30, 0.40, 0.40}, 0},  // (1,1) A
      BoxEntry{Box{0.30, 0.30, 0.45, 0.45}, 1},  // (1,1) A
      BoxEntry{Box{0.20, 0.30, 0.30, 0.40}, 2},  // (0,1) A, (1,1) C
      BoxEntry{Box{0.30, 0.20, 0.40, 0.30}, 3},  // (1,0) A, (1,1) B
  });
  ResetQueryStats();
  EXPECT_EQ(SortedWindow(grid, Box{0.1, 0.1, 0.6, 0.6}),
            (std::vector<ObjectId>{0, 1, 2, 3}));
  // Tile (1,0) scans A={3} under its one first-row comparison, tile (0,1)
  // scans A={2} under its one first-column comparison; the interior tile
  // appends A={0,1} with no comparison and skips its B and C replicas.
  ExpectExactStats(GetQueryStats(), {.tiles_visited = 3,
                                     .scanned_a = 4,
                                     .comparisons = 2,
                                     .duplicates_avoided = 2,
                                     .candidates = 4});
}

// The corner tile (0, 0) of a 2x2-tile window plans two comparisons per
// class-A entry. Entry 0 fails the first one, so a short-circuiting loop
// executes only one comparison for it; the counter still reports the two
// planned ones (Table II's count), 2 entries x 2 = 4.
TEST_F(EnabledQueryStatsTest, ExactCountsShortCircuitedEntry) {
  TwoLayerGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build({
      BoxEntry{Box{0.01, 0.01, 0.05, 0.05}, 0},  // xu < W.xl: cut at once
      BoxEntry{Box{0.15, 0.15, 0.20, 0.20}, 1},  // passes both
  });
  ResetQueryStats();
  EXPECT_EQ(SortedWindow(grid, Box{0.1, 0.1, 0.4, 0.4}),
            (std::vector<ObjectId>{1}));
  ExpectExactStats(GetQueryStats(),
                   {.tiles_visited = 1, .scanned_a = 2, .comparisons = 4,
                    .candidates = 1});
}

// A window inside one tile plans all four comparisons. The 2-layer+ plan
// binary-searches xu >= W.xl (all estimates tie; xu is considered first)
// and verifies the three residual comparisons with the 4-box vector kernel
// over the 5 entries the search keeps.
TEST_F(EnabledQueryStatsTest, ExactCountsTwoLayerPlusVectorResidual) {
  TwoLayerPlusGrid grid(GridLayout(kUnit, 4, 4));
  grid.Build({
      BoxEntry{Box{0.01, 0.01, 0.03, 0.03}, 0},  // cut by the search
      BoxEntry{Box{0.10, 0.10, 0.15, 0.15}, 1},  // result
      BoxEntry{Box{0.21, 0.10, 0.24, 0.15}, 2},  // xl > W.xu
      BoxEntry{Box{0.10, 0.21, 0.15, 0.24}, 3},  // yl > W.yu
      BoxEntry{Box{0.06, 0.06, 0.07, 0.07}, 4},  // result
      BoxEntry{Box{0.12, 0.01, 0.13, 0.03}, 5},  // yu < W.yl
  });
  ResetQueryStats();
  EXPECT_EQ(SortedWindow(grid, Box{0.05, 0.05, 0.20, 0.20}),
            (std::vector<ObjectId>{1, 4}));
  ExpectExactStats(GetQueryStats(), {.tiles_visited = 1,
                                     .scanned_a = 5,
                                     .comparisons = 5 * 3,
                                     .binary_search_probes = 3,  // 6 values
                                     .candidates = 2});
}

}  // namespace
}  // namespace tlp
