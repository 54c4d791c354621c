#ifndef TLP_CORE_KNN_H_
#define TLP_CORE_KNN_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/entry_predicate.h"
#include "core/two_layer_grid.h"

namespace tlp {

/// One k-nearest-neighbor result: the stored entry plus its MBR minimum
/// distance to the query point (Box::MinDistanceTo).
struct RankedEntry {
  BoxEntry entry;
  Coord distance = 0;

  friend bool operator==(const RankedEntry& a, const RankedEntry& b) {
    return a.entry.id == b.entry.id && a.entry.box == b.entry.box &&
           a.distance == b.distance;
  }
};

/// Rank order of kNN results: ascending distance, ties by ascending id.
/// A closure object rather than a function, so that std::sort inlines it.
inline constexpr auto RankedBefore = [](const RankedEntry& a,
                                        const RankedEntry& b) {
  return a.distance != b.distance ? a.distance < b.distance
                                  : a.entry.id < b.entry.id;
};

/// True iff an entry with box `b` at `distance` from the query point can
/// rank in a kNN answer. NaN has no place in the (distance, id) order, so a
/// box with a NaN coordinate, or whose distance is NaN (every box when the
/// query point has a NaN coordinate), is never a result. The check covers
/// all four coordinates because MinDistanceTo ignores a NaN upper corner.
inline bool KnnRankable(const Box& b, Coord distance) {
  return !(std::isnan(distance) || std::isnan(b.xl) || std::isnan(b.yl) ||
           std::isnan(b.xu) || std::isnan(b.yu));
}

/// k-nearest-neighbor query over a two-layer grid (the paper's §VIII
/// "future work" query type), at the filtering level: the k entries
/// nearest to `q` by MBR minimum distance that satisfy `keep` and are
/// KnnRankable, sorted by RankedBefore. Candidates failing `keep` do not
/// count toward k; `keep` is called only for entries that would enter the
/// current top k, so it must be a pure function of the entry.
///
/// Strategy: best-first distance browsing over tiles (Hjaltason & Samet,
/// TODS 1999), duplicate-free by the reference-point idea of Dittrich &
/// Seeger applied to the nearest point.
///  * Rings. The walk starts at q's tile (q clamped into the grid, so an
///    out-of-domain q works) and grows outward in rings: the visited rows
///    form an interval around q's row, each row's visited columns an
///    interval around q's column, and a small heap over this frontier
///    always visits the tile with the smallest lower distance bound next.
///    Border tiles extend to infinity outward, which bounds the entries the
///    grid clamps into them.
///  * Emit rule. An entry is considered only in the tile holding p* =
///    clamp(q, box), its MBR point nearest q. That tile is q's tile clamped
///    into TilesFor(box) — the same tile, since ColumnOf/RowOf are
///    monotone — so exactly one tile reports each object. In tiles east of
///    q's column only classes A/B (x-start in the tile) qualify, north of
///    q's row only A/C; in tiles west (south) an entry qualifies iff its
///    xu (yu) lies in the tile's column (row). Segments and entries the
///    rule rejects count as `duplicates_avoided`.
///  * Top k. The k best by RankedBefore are kept in a heap whose capacity
///    grows with what it holds (at most min(k, twice its size)), never with
///    k alone.
///  * Stop rule. The walk stops once the next tile's lower bound is
///    strictly greater than the current k-th distance, by a slack that
///    covers the rounding between ColumnOf's cell edges and TileOrigin. Any
///    entry at the k-th distance is therefore still visited, and (distance,
///    id) ties resolve exactly as a full sort would. The query returns
///    fewer than k results only when fewer than k objects match.
///  * NaN rule. Entries that are not KnnRankable are skipped; the live
///    overlay (ConcurrentTwoLayerGrid::Snapshot) applies the same rule.
std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep = {});

}  // namespace tlp

#endif  // TLP_CORE_KNN_H_
