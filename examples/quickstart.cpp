// Quickstart: build a two-layer grid over a synthetic rectangle collection,
// run window and disk range queries, and insert new objects incrementally.
//
//   ./quickstart [cardinality]

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "core/convex_range_query.h"
#include "core/knn.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"

int main(int argc, char** argv) {
  using namespace tlp;

  std::size_t cardinality = 200000;
  if (argc > 1) cardinality = std::strtoull(argv[1], nullptr, 10);

  // 1. Generate a dataset of MBRs (in a real application these come from
  // your objects' bounding boxes; ids index your own geometry storage).
  SyntheticConfig config;
  config.cardinality = cardinality;
  config.area = 1e-8;
  const std::vector<BoxEntry> data = GenerateSyntheticRects(config);
  std::printf("dataset: %zu rectangles in [0,1]^2\n", data.size());

  // 2. Build the index. A granularity of ~sqrt(n)/4 partitions per dimension
  // is a good default (the paper shows a wide flat optimum).
  const auto dim = std::max<std::uint32_t>(
      64, static_cast<std::uint32_t>(
              std::sqrt(static_cast<double>(data.size())) / 4));
  Stopwatch build_watch;
  TwoLayerGrid grid(GridLayout(Box{0, 0, 1, 1}, dim, dim));
  grid.Build(data);
  std::printf("built 2-layer grid (%ux%u tiles) in %.1f ms, %.1f MB\n", dim,
              dim, build_watch.ElapsedMillis(),
              static_cast<double>(grid.SizeBytes()) / (1024.0 * 1024.0));

  // 3. Window query: every object whose MBR intersects the window, exactly
  // once, with no deduplication pass.
  const Box window{0.40, 0.40, 0.45, 0.45};
  std::vector<ObjectId> results;
  Stopwatch query_watch;
  grid.WindowQuery(window, &results);
  std::printf("window [%.2f,%.2f]x[%.2f,%.2f]: %zu results in %.1f us\n",
              window.xl, window.xu, window.yl, window.yu, results.size(),
              query_watch.ElapsedMicros());

  // 4. Disk query: everything within distance 0.02 of a point.
  results.clear();
  query_watch.Reset();
  grid.DiskQuery(Point{0.5, 0.5}, 0.02, &results);
  std::printf("disk c=(0.5,0.5) r=0.02: %zu results in %.1f us\n",
              results.size(), query_watch.ElapsedMicros());

  // 5. Updates: grids ingest new objects cheaply (paper Table VI).
  Stopwatch insert_watch;
  for (int k = 0; k < 1000; ++k) {
    const double x = 0.4 + 0.0001 * k;
    const auto id =
        static_cast<ObjectId>(data.size() + static_cast<std::size_t>(k));
    grid.Insert(BoxEntry{Box{x, 0.42, x + 0.001, 0.421}, id});
  }
  std::printf("1000 inserts in %.1f ms\n", insert_watch.ElapsedMillis());

  results.clear();
  grid.WindowQuery(window, &results);
  std::printf("window now returns %zu results\n", results.size());

  // 6. k-nearest neighbors (by MBR distance) and convex polygon ranges use
  // the same duplicate-free machinery.
  const auto nearest = KnnEntries(grid, Point{0.5, 0.5}, 5);
  std::printf("5-NN of (0.5,0.5): nearest id %u at distance %.5f\n",
              nearest.front().entry.id, nearest.front().distance);
  const ConvexPolygon triangle(
      {Point{0.40, 0.40}, Point{0.46, 0.41}, Point{0.43, 0.46}});
  results.clear();
  ConvexRangeQuery(grid, triangle, &results);
  std::printf("triangle range: %zu results\n", results.size());

  // 7. The 2-layer+ variant answers window queries even faster by storing
  // decomposed sorted coordinate tables (best for static collections).
  TwoLayerPlusGrid plus(GridLayout(Box{0, 0, 1, 1}, dim, dim));
  plus.Build(data);
  results.clear();
  query_watch.Reset();
  plus.WindowQuery(window, &results);
  std::printf("2-layer+ window: %zu results in %.1f us\n", results.size(),
              query_watch.ElapsedMicros());
  return 0;
}
