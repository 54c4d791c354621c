// Differential coverage of Build() across thread counts: for every grid in
// the family (1-layer, 2-layer, 2-layer+), bulk loads at 2, 4, and 8
// threads must produce an index *identical* to the one-thread build — not
// merely equivalent: the per-tile entry order is part of the contract
// (api/spatial_index.h), so window, disk, and batch results are compared for
// exact equality, the 1-layer and 2-layer grids' tiles are compared entry by
// entry, and SizeBytes() must match. Every thread count runs the same bulk
// load, so each build is also checked against an independent reference: the
// same entries loaded one Insert() at a time (equal per-tile multisets,
// equal query result sets, CheckInvariants()). Also exercises degenerate
// shapes (more threads than tiles, more threads than entries, empty input)
// where chunking edge cases live. Runs under TSan in CI to certify the
// build phases race-free.

#include <algorithm>
#include <cstddef>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "batch/batch_executor.h"
#include "common/rng.h"
#include "core/classes.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "grid/grid_layout.h"
#include "grid/one_layer_grid.h"
#include "test_util.h"

namespace tlp {
namespace {

const Box kUnit{0, 0, 1, 1};
constexpr std::size_t kThreadCounts[] = {2, 4, 8};
constexpr std::size_t kAllThreadCounts[] = {1, 2, 4, 8};

std::vector<Box> QueryWindows() { return testing::RandomWindows(30, 5151); }

std::vector<std::pair<Point, Coord>> QueryDisks() {
  Rng rng(5252);
  std::vector<std::pair<Point, Coord>> disks;
  for (int t = 0; t < 20; ++t) {
    disks.push_back({Point{rng.NextDouble(), rng.NextDouble()},
                     rng.NextDouble() * 0.25});
  }
  disks.push_back({Point{-0.3, 1.2}, 0.6});  // query outside the domain
  disks.push_back({Point{0.5, 0.5}, 0.0});   // degenerate radius
  return disks;
}

/// Window + disk results of `par` must equal `one`'s *including order* —
/// the builds promise identical indices, so identical traversals.
void ExpectIdenticalQueries(const SpatialIndex& one, const SpatialIndex& par,
                            const std::string& context) {
  for (const Box& w : QueryWindows()) {
    std::vector<ObjectId> a, b;
    one.WindowQuery(w, &a);
    par.WindowQuery(w, &b);
    ASSERT_EQ(a, b) << "window mismatch " << context;
  }
  for (const auto& [q, radius] : QueryDisks()) {
    std::vector<ObjectId> a, b;
    one.DiskQuery(q, radius, &a);
    par.DiskQuery(q, radius, &b);
    ASSERT_EQ(a, b) << "disk mismatch " << context;
  }
}

/// Window + disk results of `built` and `inserted` as id sets.
void ExpectSameQueryResults(const SpatialIndex& built,
                            const SpatialIndex& inserted,
                            const std::string& context) {
  for (const Box& w : QueryWindows()) {
    std::vector<ObjectId> a, b;
    built.WindowQuery(w, &a);
    inserted.WindowQuery(w, &b);
    testing::ExpectSameIdSet(b, a, "window, " + context);
  }
  for (const auto& [q, radius] : QueryDisks()) {
    std::vector<ObjectId> a, b;
    built.DiskQuery(q, radius, &a);
    inserted.DiskQuery(q, radius, &b);
    testing::ExpectSameIdSet(b, a, "disk, " + context);
  }
}

/// `n` entries from `p`, sorted by (id, box): a tile's multiset.
std::vector<BoxEntry> SortedEntries(const BoxEntry* p, std::size_t n) {
  std::vector<BoxEntry> v(p, p + n);
  std::sort(v.begin(), v.end(), [](const BoxEntry& a, const BoxEntry& b) {
    return std::tie(a.id, a.box.xl, a.box.yl, a.box.xu, a.box.yu) <
           std::tie(b.id, b.box.xl, b.box.yl, b.box.xu, b.box.yu);
  });
  return v;
}

/// Entry-by-entry equality of two entry sequences.
void ExpectSameEntries(const std::vector<BoxEntry>& a,
                       const std::vector<BoxEntry>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << "tile size, " << context;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].id, b[k].id) << "entry id, " << context;
    ASSERT_EQ(a[k].box, b[k].box) << "entry box, " << context;
  }
}

/// Per-(tile, class) multisets of a built and an Insert-loaded 2-layer grid.
void ExpectSameTileMultisets(const TwoLayerGrid& built,
                             const TwoLayerGrid& inserted,
                             const std::string& context) {
  const GridLayout& g = built.layout();
  for (std::size_t t = 0; t < g.tile_count(); ++t) {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      const auto cls = static_cast<ObjectClass>(c);
      const auto [pa, na] = built.ClassSpan(t, cls);
      const auto [pb, nb] = inserted.ClassSpan(t, cls);
      ExpectSameEntries(SortedEntries(pa, na), SortedEntries(pb, nb),
                        "tile " + std::to_string(t) + ", class " +
                            std::to_string(c) + ", " + context);
    }
  }
}

/// Per-tile multisets of a built and an Insert-loaded 1-layer grid.
void ExpectSameTileMultisets(const OneLayerGrid& built,
                             const OneLayerGrid& inserted,
                             const std::string& context) {
  for (std::size_t t = 0; t < built.layout().tile_count(); ++t) {
    const auto& a = built.TileEntries(t);
    const auto& b = inserted.TileEntries(t);
    ExpectSameEntries(SortedEntries(a.data(), a.size()),
                      SortedEntries(b.data(), b.size()),
                      "tile " + std::to_string(t) + ", " + context);
  }
}

void ExpectSameTileMultisets(const TwoLayerPlusGrid& built,
                             const TwoLayerPlusGrid& inserted,
                             const std::string& context) {
  ExpectSameTileMultisets(built.record_layer(), inserted.record_layer(),
                          context + " (record layer)");
}

/// Builds a `Grid` at 1, 2, 4 and 8 threads and checks every build against
/// the same entries loaded one Insert() at a time, which shares no code with
/// the bulk load: CheckInvariants(), equal per-tile multisets and equal
/// query result sets. Every build must also report the one-thread build's
/// SizeBytes().
template <typename Grid>
void CheckBuildsAgainstInsertLoop(const std::vector<BoxEntry>& data,
                                  const GridLayout& layout) {
  Grid inserted(layout);
  for (const BoxEntry& e : data) inserted.Insert(e);
  ASSERT_TRUE(inserted.CheckInvariants());
  std::size_t one_thread_bytes = 0;
  for (std::size_t t : kAllThreadCounts) {
    const std::string context = std::to_string(t) + " threads";
    Grid built(layout);
    built.Build(data, t);
    ASSERT_TRUE(built.CheckInvariants()) << context;
    ExpectSameTileMultisets(built, inserted, context);
    ExpectSameQueryResults(built, inserted, context);
    if (t == 1) one_thread_bytes = built.SizeBytes();
    EXPECT_EQ(built.SizeBytes(), one_thread_bytes) << "SizeBytes, " << context;
  }
}

/// Byte-level comparison of every tile's every class segment.
void ExpectIdenticalTiles(const TwoLayerGrid& one, const TwoLayerGrid& par,
                          const std::string& context) {
  const GridLayout& g = one.layout();
  for (std::uint32_t j = 0; j < g.ny(); ++j) {
    for (std::uint32_t i = 0; i < g.nx(); ++i) {
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        const auto [pa, na] = one.ClassSpan(i, j, cls);
        const auto [pb, nb] = par.ClassSpan(i, j, cls);
        ASSERT_EQ(na, nb) << "class size, tile (" << i << "," << j << ") "
                          << context;
        for (std::size_t k = 0; k < na; ++k) {
          ASSERT_EQ(pa[k].id, pb[k].id)
              << "entry order, tile (" << i << "," << j << ") " << context;
          ASSERT_EQ(pa[k].box, pb[k].box)
              << "entry box, tile (" << i << "," << j << ") " << context;
        }
      }
    }
  }
}

/// Entry-by-entry comparison of every 1-layer tile, storage order included.
void ExpectIdenticalTiles(const OneLayerGrid& one, const OneLayerGrid& par,
                          const std::string& context) {
  for (std::size_t t = 0; t < one.layout().tile_count(); ++t) {
    ExpectSameEntries(one.TileEntries(t), par.TileEntries(t),
                      "tile " + std::to_string(t) + ", " + context);
  }
}

TEST(ParallelBuildTest, OneLayerGridMatchesOneThread) {
  const auto data = testing::RandomEntries(20000, 0.03, 901);
  const GridLayout layout(kUnit, 32, 32);
  OneLayerGrid one(layout);
  one.Build(data, /*num_threads=*/1);
  for (std::size_t t : kThreadCounts) {
    OneLayerGrid par(layout);
    par.Build(data, t);
    ASSERT_EQ(par.entry_count(), one.entry_count()) << t << " threads";
    const std::string context = std::to_string(t) + " threads";
    ExpectIdenticalTiles(one, par, context);
    ExpectIdenticalQueries(one, par, context);
    EXPECT_EQ(par.SizeBytes(), one.SizeBytes()) << context;
  }
}

TEST(ParallelBuildTest, TwoLayerGridMatchesOneThread) {
  const auto data = testing::RandomEntries(20000, 0.03, 902);
  const GridLayout layout(kUnit, 29, 31);  // odd extents: uneven tile rows
  TwoLayerGrid one(layout);
  one.Build(data, /*num_threads=*/1);
  ASSERT_TRUE(one.CheckInvariants());
  for (std::size_t t : kThreadCounts) {
    TwoLayerGrid par(layout);
    par.Build(data, t);
    ASSERT_TRUE(par.CheckInvariants()) << t << " threads";
    ASSERT_EQ(par.entry_count(), one.entry_count()) << t << " threads";
    const std::string context = std::to_string(t) + " threads";
    ExpectIdenticalTiles(one, par, context);
    ExpectIdenticalQueries(one, par, context);
    EXPECT_EQ(par.SizeBytes(), one.SizeBytes()) << context;
  }
}

TEST(ParallelBuildTest, TwoLayerGridBatchMatchesOneThread) {
  const auto data = testing::RandomEntries(12000, 0.02, 903);
  const GridLayout layout(kUnit, 24, 24);
  TwoLayerGrid one(layout);
  one.Build(data, /*num_threads=*/1);
  TwoLayerGrid par(layout);
  par.Build(data, /*num_threads=*/4);

  const auto queries = testing::RandomWindows(60, 5353);
  // Tiles-based batch evaluation (§VI) over both builds, itself threaded.
  const auto counts_one = BatchExecutor::RunTilesBased(one, queries, 2);
  const auto counts_par = BatchExecutor::RunTilesBased(par, queries, 2);
  EXPECT_EQ(counts_one, counts_par);
  EXPECT_EQ(BatchExecutor::CollectTilesBased(one, queries),
            BatchExecutor::CollectTilesBased(par, queries));
}

TEST(ParallelBuildTest, TwoLayerPlusGridMatchesOneThread) {
  const auto data = testing::RandomEntries(15000, 0.04, 904);
  const GridLayout layout(kUnit, 21, 17);
  TwoLayerPlusGrid one(layout);
  one.Build(data, /*num_threads=*/1);
  ASSERT_TRUE(one.CheckInvariants());
  for (std::size_t t : kThreadCounts) {
    TwoLayerPlusGrid par(layout);
    par.Build(data, t);
    ASSERT_TRUE(par.CheckInvariants()) << t << " threads";
    ExpectIdenticalTiles(one.record_layer(), par.record_layer(),
                         std::to_string(t) + " threads (record layer)");
    ExpectIdenticalQueries(one, par, std::to_string(t) + " threads");
    EXPECT_EQ(par.SizeBytes(), one.SizeBytes()) << t << " threads";
  }
}

/// The one-thread build runs the same code as every other thread count, so
/// each grid is also checked against its Insert()-loaded twin.
TEST(ParallelBuildTest, OneLayerGridMatchesInsertLoop) {
  CheckBuildsAgainstInsertLoop<OneLayerGrid>(
      testing::RandomEntries(20000, 0.03, 911), GridLayout(kUnit, 32, 32));
}

TEST(ParallelBuildTest, TwoLayerGridMatchesInsertLoop) {
  CheckBuildsAgainstInsertLoop<TwoLayerGrid>(
      testing::RandomEntries(20000, 0.03, 912), GridLayout(kUnit, 29, 31));
}

TEST(ParallelBuildTest, TwoLayerPlusGridMatchesInsertLoop) {
  CheckBuildsAgainstInsertLoop<TwoLayerPlusGrid>(
      testing::RandomEntries(8000, 0.04, 913), GridLayout(kUnit, 21, 17));
}

/// Tied coordinate values are where sort-order identity can silently break:
/// the decomposed tables sort by (value, id), so duplicated coordinates must
/// still yield the same table order for every thread count.
TEST(ParallelBuildTest, TwoLayerPlusGridTiedCoordinates) {
  Rng rng(905);
  std::vector<BoxEntry> data;
  for (std::size_t k = 0; k < 4000; ++k) {
    // Snap every coordinate to a coarse lattice: many exact ties per tile.
    const double x = static_cast<double>(rng.NextBelow(40)) / 40.0;
    const double y = static_cast<double>(rng.NextBelow(40)) / 40.0;
    const double w = static_cast<double>(rng.NextBelow(4)) / 40.0;
    const double h = static_cast<double>(rng.NextBelow(4)) / 40.0;
    data.push_back(BoxEntry{Box{x, y, std::min(1.0, x + w),
                                std::min(1.0, y + h)},
                            static_cast<ObjectId>(k)});
  }
  const GridLayout layout(kUnit, 10, 10);
  TwoLayerPlusGrid one(layout);
  one.Build(data, /*num_threads=*/1);
  for (std::size_t t : kThreadCounts) {
    TwoLayerPlusGrid par(layout);
    par.Build(data, t);
    ASSERT_TRUE(par.CheckInvariants()) << t << " threads";
    ExpectIdenticalQueries(one, par, std::to_string(t) + " threads (ties)");
  }
}

/// Degenerate shapes: more threads than tiles, more threads than entries,
/// and empty input — the chunk/ownership math must not over-run or drop.
TEST(ParallelBuildTest, DegenerateShapes) {
  const GridLayout tiny(kUnit, 2, 2);  // 4 tiles, 8 threads
  const auto data = testing::RandomEntries(500, 0.2, 906);
  TwoLayerGrid one_thread(tiny);
  one_thread.Build(data, 1);
  TwoLayerGrid par(tiny);
  par.Build(data, 8);
  ASSERT_TRUE(par.CheckInvariants());
  ExpectIdenticalTiles(one_thread, par, "8 threads, 4 tiles");

  const auto few = testing::RandomEntries(5, 0.1, 907);
  for (std::size_t t : kThreadCounts) {
    OneLayerGrid one(GridLayout(kUnit, 8, 8));
    one.Build(few, t);
    for (const Box& w : QueryWindows()) {
      testing::CheckWindowAgainstBruteForce(one, few, w, "5 entries");
    }
    TwoLayerPlusGrid plus(GridLayout(kUnit, 8, 8));
    plus.Build(few, t);
    ASSERT_TRUE(plus.CheckInvariants());
    for (const Box& w : QueryWindows()) {
      testing::CheckWindowAgainstBruteForce(plus, few, w, "5 entries");
    }
  }

  TwoLayerGrid empty(GridLayout(kUnit, 4, 4));
  empty.Build({}, 4);
  ASSERT_TRUE(empty.CheckInvariants());
  EXPECT_EQ(empty.entry_count(), 0u);
  std::vector<ObjectId> out;
  empty.WindowQuery(kUnit, &out);
  EXPECT_TRUE(out.empty());
}

/// num_threads = 0 auto-selects but must still match the one-thread build.
TEST(ParallelBuildTest, AutoThreadCountMatchesOneThread) {
  const auto data = testing::RandomEntries(70000, 0.01, 908);  // above cutoff
  const GridLayout layout(kUnit, 48, 48);
  TwoLayerGrid one(layout);
  one.Build(data, 1);
  TwoLayerGrid aut(layout);
  aut.Build(data);  // default num_threads = 0
  ASSERT_TRUE(aut.CheckInvariants());
  ExpectIdenticalTiles(one, aut, "auto threads");
}

}  // namespace
}  // namespace tlp
