#ifndef TLP_BATCH_BATCH_EXECUTOR_H_
#define TLP_BATCH_BATCH_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/two_layer_grid.h"

namespace tlp {

/// Batch evaluation strategies of paper §VI for a workload of concurrent
/// window queries over a two-layer grid.
///
/// * Queries-based: evaluate each query independently; parallel execution
///   assigns queries to threads round-robin. Cache-agnostic.
/// * Tiles-based: first accumulate, per tile, the subtasks of all queries
///   that intersect it; then process tile by tile, so each tile's secondary
///   partitions are touched once while hot in cache. Parallel execution
///   assigns tile groups to threads.
///
/// Both return per-query result counts; CollectResults variants return the
/// full id lists (used by tests to prove result equivalence).
class BatchExecutor {
 public:
  /// Evaluates `queries` one by one with `num_threads` workers (0 means
  /// one); returns the result count of each query.
  static std::vector<std::uint32_t> RunQueriesBased(
      const TwoLayerGrid& grid, const std::vector<Box>& queries,
      std::size_t num_threads);

  /// Cache-conscious two-step evaluation (§VI) with `num_threads` workers
  /// (0 means one); returns per-query counts.
  static std::vector<std::uint32_t> RunTilesBased(
      const TwoLayerGrid& grid, const std::vector<Box>& queries,
      std::size_t num_threads);

  /// Sequential variants that collect full per-query result id lists.
  static std::vector<std::vector<ObjectId>> CollectQueriesBased(
      const TwoLayerGrid& grid, const std::vector<Box>& queries);
  static std::vector<std::vector<ObjectId>> CollectTilesBased(
      const TwoLayerGrid& grid, const std::vector<Box>& queries);
};

}  // namespace tlp

#endif  // TLP_BATCH_BATCH_EXECUTOR_H_
