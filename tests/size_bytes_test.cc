// SizeBytes() audit across the index family (ISSUE: the snapshot header
// records it, tooling prints it, and the paper's space numbers depend on
// it). The grid indices get a strict payload accounting — their entry and
// table sizes are derivable from public counters — while tree indices get
// sanity bounds (payload is a lower bound; directory overhead must stay
// within an order of magnitude). Also pins the lazily-allocated TileTables
// of the 2-layer+ grid: touching a fresh tile must grow the reported size.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "block/block_index.h"
#include "common/column.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/synthetic.h"
#include "grid/grid_layout.h"
#include "grid/one_layer_grid.h"
#include "quadtree/quad_tree.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace tlp {
namespace {

std::vector<BoxEntry> MakeData(std::size_t n) {
  SyntheticConfig config;
  config.cardinality = n;
  config.area = 1e-6;
  config.seed = 11;
  return GenerateSyntheticRects(config);
}

GridLayout Layout() { return GridLayout(Box{0, 0, 1, 1}, 31, 29); }

/// Entry payload of a replicating grid: every stored replica is one
/// BoxEntry. Directory overhead (tiles, begins, capacity slack) comes on
/// top, so payload must be a hard lower bound and the total must stay
/// within a small multiple of it for a three-quarters-full grid.
void ExpectWithinPayloadBounds(std::size_t size_bytes, std::size_t payload,
                               double max_overhead_factor,
                               const std::string& context) {
  EXPECT_GE(size_bytes, payload) << context;
  EXPECT_LE(size_bytes,
            static_cast<std::size_t>(static_cast<double>(payload) *
                                     max_overhead_factor) +
                (1u << 20))
      << context << ": reported " << size_bytes << " for payload " << payload;
}

TEST(SizeBytesAudit, OneLayerGrid) {
  const auto data = MakeData(20000);
  OneLayerGrid index(Layout());
  index.Build(data);
  const std::size_t payload = index.entry_count() * sizeof(BoxEntry);
  ExpectWithinPayloadBounds(index.SizeBytes(), payload, 3.0, "1-layer");
}

TEST(SizeBytesAudit, TwoLayerGrid) {
  const auto data = MakeData(20000);
  TwoLayerGrid index(Layout());
  index.Build(data);
  const std::size_t payload = index.entry_count() * sizeof(BoxEntry);
  ExpectWithinPayloadBounds(index.SizeBytes(), payload, 3.0, "2-layer");
}

TEST(SizeBytesAudit, TwoLayerGridCountsPerTileState) {
  // Every tile carries its entry column, its class begins and its class-A
  // extent, and the grid one occupancy bit per tile: an empty grid reports
  // at least all of that, and a build adds at least the entries on top.
  TwoLayerGrid index(Layout());
  const std::size_t per_tile = sizeof(Column<BoxEntry>) +
                               (kNumClasses + 1) * sizeof(std::uint32_t) +
                               sizeof(Box);
  const std::size_t empty = index.SizeBytes();
  EXPECT_GE(empty, index.layout().tile_count() * per_tile +
                       index.occupancy().SizeBytes());
  index.Build(MakeData(20000));
  EXPECT_GE(index.SizeBytes() - empty,
            index.entry_count() * sizeof(BoxEntry));
}

TEST(SizeBytesAudit, TwoLayerPlusCountsDecomposedTables) {
  const auto data = MakeData(20000);
  TwoLayerPlusGrid index(Layout());
  index.Build(data);

  // Record layer + the Table II sorted tables: class A stores 4
  // <Coord, ObjectId> columns, B and C store 3, D stores 2.
  const GridLayout& g = index.layout();
  std::size_t payload = index.record_layer().entry_count() * sizeof(BoxEntry);
  const std::size_t cols[kNumClasses] = {4, 3, 3, 2};
  for (std::uint32_t j = 0; j < g.ny(); ++j) {
    for (std::uint32_t i = 0; i < g.nx(); ++i) {
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        payload += cols[c] *
                   index.record_layer().ClassCount(
                       i, j, static_cast<ObjectClass>(c)) *
                   (sizeof(Coord) + sizeof(ObjectId));
      }
    }
  }
  ExpectWithinPayloadBounds(index.SizeBytes(), payload, 3.0, "2-layer+");
}

TEST(SizeBytesAudit, LazyTileTablesAreAccounted) {
  // One entry in one tile: the single allocated TileTables block must be
  // part of the reported size, and inserting into a far-away (previously
  // table-less) tile must grow it by at least another block.
  TwoLayerPlusGrid index(GridLayout(Box{0, 0, 1, 1}, 16, 16));
  index.Build({BoxEntry{Box{0.01, 0.01, 0.02, 0.02}, 0}});
  const std::size_t one_tile = index.SizeBytes();

  index.Insert(BoxEntry{Box{0.95, 0.95, 0.96, 0.96}, 1});
  const std::size_t two_tiles = index.SizeBytes();
  // New tile tables + one entry in each representation; the TileTables
  // struct alone is 16 table headers.
  EXPECT_GE(two_tiles - one_tile, sizeof(BoxEntry) + 2 * sizeof(Coord));
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(SizeBytesAudit, SnapshotLoadsReportComparableSizes) {
  const auto data = MakeData(15000);
  TwoLayerPlusGrid built(Layout());
  built.Build(data);
  const std::string path = ::testing::TempDir() + "/size_audit.tlps";
  ASSERT_TRUE(built.Save(path).ok());

  // A deserialized index holds identical contents; only vector capacity
  // slack may differ (builds over-allocate, loads size exactly), so the
  // loaded size must not exceed the built one and must stay within 2x.
  TwoLayerPlusGrid owned(Layout());
  ASSERT_TRUE(owned.Load(path).ok());
  EXPECT_LE(owned.SizeBytes(), built.SizeBytes());
  EXPECT_GE(owned.SizeBytes() * 2, built.SizeBytes());

  // A mapped index reports the view sizes — the same byte counts the owned
  // load allocates (both are capacity-exact).
  TwoLayerPlusGrid mapped(Layout());
  ASSERT_TRUE(mapped.LoadMapped(path).ok());
  EXPECT_EQ(mapped.SizeBytes(), owned.SizeBytes());

  // Thawing copies views into owned vectors of exactly the same lengths.
  ASSERT_TRUE(mapped.Thaw().ok());
  EXPECT_EQ(mapped.SizeBytes(), owned.SizeBytes());
  std::remove(path.c_str());
}

TEST(SizeBytesAudit, TreeIndexSanityBounds) {
  const auto data = MakeData(20000);
  const std::size_t raw = data.size() * sizeof(BoxEntry);

  QuadTree quad(Box{0, 0, 1, 1}, QuadTreeMode::kTwoLayer);
  quad.Build(data);
  EXPECT_GE(quad.SizeBytes(), data.size() * sizeof(ObjectId));
  EXPECT_LE(quad.SizeBytes(), raw * 20);

  RTree rtree(RTreeVariant::kStr);
  rtree.Build(data);
  EXPECT_GE(rtree.SizeBytes(), data.size() * sizeof(ObjectId));
  EXPECT_LE(rtree.SizeBytes(), raw * 20);

  // BLOCK replicates each object into every level-10 cell it intersects
  // and keeps a hierarchical directory, so its footprint is an order of
  // magnitude above the raw payload by design — bound it loosely.
  BlockIndex block(Box{0, 0, 1, 1});
  block.Build(data);
  EXPECT_GE(block.SizeBytes(), data.size() * sizeof(ObjectId));
  EXPECT_LE(block.SizeBytes(), raw * 100);
}

}  // namespace
}  // namespace tlp
