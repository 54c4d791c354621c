#ifndef TLP_GRID_PARALLEL_BUILD_H_
#define TLP_GRID_PARALLEL_BUILD_H_

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "geometry/box.h"
#include "grid/grid_layout.h"

namespace tlp {
namespace build_internal {

/// Below this entry count an automatic (num_threads == 0) Build uses one
/// thread: spawning workers and merging per-chunk histograms costs more
/// than the scan it saves. An explicit num_threads is always honored.
inline constexpr std::size_t kAutoOneThreadCutoff = 1 << 16;

/// Resolves a Build() num_threads knob: 0 = one thread per hardware core
/// (with the small-input cutoff above), any other value is taken literally.
inline std::size_t EffectiveBuildThreads(std::size_t requested,
                                         std::size_t entry_count) {
  if (requested != 0) return requested;
  if (entry_count < kAutoOneThreadCutoff) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Precomputes every entry's tile range with one parallel pass; the place
/// pass reads it once per part. (OneLayerGrid and TwoLayerGrid record the
/// ranges in their count pass instead.)
inline std::vector<TileRange> ComputeTileRanges(
    ThreadPool& pool, const GridLayout& layout,
    const std::vector<BoxEntry>& entries) {
  std::vector<TileRange> ranges(entries.size());
  ParallelFor(pool, entries.size(),
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t k = begin; k < end; ++k) {
                  ranges[k] = layout.TilesFor(entries[k].box);
                }
              });
  return ranges;
}

/// Splits the tile-id space [0, tile_work.size()) into `parts` contiguous
/// ranges of near-equal total work (part p owns tiles [cuts[p], cuts[p+1])).
/// Contiguous ownership is what makes the place pass race-free: a tile has
/// exactly one writer, and the per-entry ownership test is two comparisons
/// on the entry's precomputed tile range.
inline std::vector<std::size_t> BalanceTiles(
    const std::vector<std::uint64_t>& tile_work, std::size_t parts) {
  std::vector<std::size_t> cuts(parts + 1, tile_work.size());
  cuts[0] = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t w : tile_work) total += w;
  std::size_t tile = 0;
  std::uint64_t covered = 0;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::uint64_t target = total * p / parts;
    while (tile < tile_work.size() && covered < target) {
      covered += tile_work[tile++];
    }
    cuts[p] = tile;
  }
  return cuts;
}

/// Runs `part(lo, hi)` once for each nonempty tile range [lo, hi) of a
/// BalanceTiles split of `tile_work` into one part per pool worker, each on
/// its own task; a one-worker pool runs its single part inline.
template <typename Part>
void ForEachTilePart(ThreadPool& pool,
                     const std::vector<std::uint64_t>& tile_work,
                     Part&& part) {
  const std::size_t parts = pool.num_threads();
  const std::vector<std::size_t> cuts = BalanceTiles(tile_work, parts);
  ParallelForChunks(pool, parts, parts,
                    [&](std::size_t p, std::size_t, std::size_t) {
                      if (cuts[p] < cuts[p + 1]) part(cuts[p], cuts[p + 1]);
                    });
}

/// Calls `place(entries[k], i, j, t)` for every replica (tile t = (i, j) of
/// ranges[k]) that lies in [lo, hi), in input order. Inside a
/// ForEachTilePart part the caller is the tiles' only writer, and the input
/// order fixes each tile's fill order for every thread count.
template <typename Place>
void ForEachOwnedReplica(const GridLayout& layout,
                         const std::vector<BoxEntry>& entries,
                         const std::vector<TileRange>& ranges, std::size_t lo,
                         std::size_t hi, Place&& place) {
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const TileRange& r = ranges[k];
    if (layout.TileId(r.i1, r.j1) < lo || layout.TileId(r.i0, r.j0) >= hi) {
      continue;
    }
    for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
      for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
        const std::size_t t = layout.TileId(i, j);
        if (t < lo || t >= hi) continue;
        place(entries[k], i, j, t);
      }
    }
  }
}

}  // namespace build_internal
}  // namespace tlp

#endif  // TLP_GRID_PARALLEL_BUILD_H_
