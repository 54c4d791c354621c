#include "batch/batch_executor.h"

#include <algorithm>
#include <utility>

#include "common/query_stats.h"
#include "common/thread_pool.h"
#include "grid/parallel_build.h"

namespace tlp {

namespace {

/// Per-tile subtask index built by counting sort: subtasks of tile t are the
/// queries in `query_of[tile_offset[t] .. tile_offset[t+1])`. Counting sort
/// (not comparison sort) keeps the accumulation step linear in the number of
/// subtasks, which matters for large batches of large queries.
struct SubtaskIndex {
  std::vector<std::size_t> tile_offset;  // size tile_count + 1
  std::vector<std::uint32_t> query_of;   // size = total subtasks
};

void BuildSubtasks(const GridLayout& layout, const std::vector<Box>& queries,
                   SubtaskIndex* index, std::vector<TileRange>* ranges) {
  ranges->resize(queries.size());
  index->tile_offset.assign(layout.tile_count() + 1, 0);
  for (std::size_t k = 0; k < queries.size(); ++k) {
    (*ranges)[k] = layout.TilesFor(queries[k]);
    const TileRange& r = (*ranges)[k];
    for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
      for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
        ++index->tile_offset[layout.TileId(i, j) + 1];
      }
    }
  }
  for (std::size_t t = 1; t < index->tile_offset.size(); ++t) {
    index->tile_offset[t] += index->tile_offset[t - 1];
  }
  index->query_of.resize(index->tile_offset.back());
  std::vector<std::size_t> cursor(index->tile_offset.begin(),
                                  index->tile_offset.end() - 1);
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const TileRange& r = (*ranges)[k];
    for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
      for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
        index->query_of[cursor[layout.TileId(i, j)]++] =
            static_cast<std::uint32_t>(k);
      }
    }
  }
}

}  // namespace

std::vector<std::uint32_t> BatchExecutor::RunQueriesBased(
    const TwoLayerGrid& grid, const std::vector<Box>& queries,
    std::size_t num_threads) {
  const std::size_t threads = std::max<std::size_t>(1, num_threads);
  std::vector<std::uint32_t> counts(queries.size(), 0);
  // Per-task stats sinks: each task drains its thread-local accumulator
  // into its own slot, and the merged total lands on the calling thread
  // after the tasks finish, so batch callers observe batch-wide counters.
  std::vector<QueryStats> task_stats(threads);
  ThreadPool pool(threads);
  // Round-robin assignment (paper §VI): task t evaluates queries
  // t, t + T, t + 2T, ...
  ParallelForChunks(
      pool, threads, threads, [&](std::size_t t, std::size_t, std::size_t) {
        std::vector<ObjectId> out;
        for (std::size_t k = t; k < queries.size(); k += threads) {
          out.clear();
          grid.WindowQuery(queries[k], &out);
          counts[k] = static_cast<std::uint32_t>(out.size());
        }
        DrainQueryStatsInto(&task_stats[t]);
      });
  for (const QueryStats& s : task_stats) MergeQueryStats(s);
  return counts;
}

std::vector<std::uint32_t> BatchExecutor::RunTilesBased(
    const TwoLayerGrid& grid, const std::vector<Box>& queries,
    std::size_t num_threads) {
  const std::size_t threads = std::max<std::size_t>(1, num_threads);
  const GridLayout& layout = grid.layout();
  SubtaskIndex index;
  std::vector<TileRange> ranges;
  BuildSubtasks(layout, queries, &index, &ranges);

  // Partition tiles into spans with balanced subtask counts; a tile is never
  // shared between tasks.
  std::vector<std::uint64_t> tile_work(layout.tile_count());
  for (std::size_t t = 0; t < tile_work.size(); ++t) {
    tile_work[t] = index.tile_offset[t + 1] - index.tile_offset[t];
  }
  const std::vector<std::size_t> cuts =
      build_internal::BalanceTiles(tile_work, threads);

  // Task t processes the subtasks of tiles [cuts[t], cuts[t+1]) into its
  // own count vector; one reusable output buffer keeps each tile's
  // secondary partitions hot across all of its subtasks.
  std::vector<std::vector<std::uint32_t>> local(
      threads, std::vector<std::uint32_t>(queries.size(), 0));
  std::vector<QueryStats> task_stats(threads);
  ThreadPool pool(threads);
  ParallelForChunks(
      pool, threads, threads, [&](std::size_t task, std::size_t, std::size_t) {
        std::vector<ObjectId> out;
        for (std::size_t t = cuts[task]; t < cuts[task + 1]; ++t) {
          const auto i = static_cast<std::uint32_t>(t % layout.nx());
          const auto j = static_cast<std::uint32_t>(t / layout.nx());
          for (std::size_t s = index.tile_offset[t];
               s < index.tile_offset[t + 1]; ++s) {
            const std::uint32_t q = index.query_of[s];
            out.clear();
            grid.WindowQueryTile(i, j, queries[q], ranges[q], &out);
            local[task][q] += static_cast<std::uint32_t>(out.size());
          }
        }
        DrainQueryStatsInto(&task_stats[task]);
      });
  for (const QueryStats& s : task_stats) MergeQueryStats(s);
  std::vector<std::uint32_t> counts = std::move(local[0]);
  for (std::size_t task = 1; task < threads; ++task) {
    for (std::size_t k = 0; k < counts.size(); ++k) counts[k] += local[task][k];
  }
  return counts;
}

std::vector<std::vector<ObjectId>> BatchExecutor::CollectQueriesBased(
    const TwoLayerGrid& grid, const std::vector<Box>& queries) {
  std::vector<std::vector<ObjectId>> results(queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    grid.WindowQuery(queries[k], &results[k]);
  }
  return results;
}

std::vector<std::vector<ObjectId>> BatchExecutor::CollectTilesBased(
    const TwoLayerGrid& grid, const std::vector<Box>& queries) {
  const GridLayout& layout = grid.layout();
  SubtaskIndex index;
  std::vector<TileRange> ranges;
  BuildSubtasks(layout, queries, &index, &ranges);
  std::vector<std::vector<ObjectId>> results(queries.size());
  for (std::size_t t = 0; t < layout.tile_count(); ++t) {
    const auto i = static_cast<std::uint32_t>(t % layout.nx());
    const auto j = static_cast<std::uint32_t>(t / layout.nx());
    for (std::size_t s = index.tile_offset[t]; s < index.tile_offset[t + 1];
         ++s) {
      const std::uint32_t q = index.query_of[s];
      grid.WindowQueryTile(i, j, queries[q], ranges[q], &results[q]);
    }
  }
  return results;
}

}  // namespace tlp
