#ifndef TLP_CORE_SKYLINE_H_
#define TLP_CORE_SKYLINE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/entry_predicate.h"
#include "core/two_layer_grid.h"

namespace tlp {

/// Minimum distance from coordinate v to the closed interval [lo, hi];
/// 0 when inside. One axis of Box::MinDistanceTo, without the hypot.
/// Exposed so the concurrency overlay computes delta candidates' skyline
/// attributes with exactly the expression the base query uses.
inline Coord SkylineAxisDistance(Coord lo, Coord hi, Coord v) {
  return std::max({lo - v, Coord{0}, v - hi});
}

/// True iff attribute point (adx, ady) dominates (bdx, bdy): <= in both
/// axes, < in at least one. Equal points do not dominate each other.
inline bool SkylineDominates(Coord adx, Coord ady, Coord bdx, Coord bdy) {
  return adx <= bdx && ady <= bdy && (adx < bdx || ady < bdy);
}

/// One skyline result: the stored entry plus its dominance attributes —
/// the per-axis minimum distances from the query point to the MBR
/// (dx = dist(q.x, [xl, xu]), dy = dist(q.y, [yl, yu]); 0 when the query
/// coordinate falls inside the interval).
struct SkylineEntry {
  BoxEntry entry;
  Coord dx = 0;
  Coord dy = 0;

  friend bool operator==(const SkylineEntry& a, const SkylineEntry& b) {
    return a.entry.id == b.entry.id && a.entry.box == b.entry.box &&
           a.dx == b.dx && a.dy == b.dy;
  }
};

/// Skyline query over a two-layer grid: the objects not dominated in the
/// (dx, dy) attribute space. Object a dominates b iff a.dx <= b.dx and
/// a.dy <= b.dy with at least one strict; objects with identical (dx, dy)
/// do not dominate each other, so attribute ties are all reported. The
/// skyline of a set is unique, so the result does not depend on scan
/// order; it is returned sorted by id.
///
/// Duplicate-free by construction: the candidates are the class-A
/// secondary partitions (every object belongs to class A of exactly one
/// tile — the one holding its MBR's lower corner), each read once. No
/// post-hoc deduplication ever runs (asserted via the query counters in tests).
///
/// Index acceleration: the grid keeps the union MBR of every tile's
/// class-A entries (TwoLayerGrid::class_a_extents()). The extent's own
/// (dx, dy) lower-bounds every entry's in that tile exactly — in every
/// quadrant around q, and for entries clamped in from outside the domain.
/// The tile holding q is scanned first; then one sweep in storage order
/// skips each tile whose bound a found skyline point already dominates,
/// or whose extent misses `region`, without reading its entries. Delete
/// leaves extents as they are, and a stale superset is still a valid bound.
///
/// `region`, when non-null, restricts the input to objects whose MBR
/// intersects it (closed intervals, like WindowQuery). `keep`, when
/// non-empty, further restricts the input set.
std::vector<SkylineEntry> SkylineQuery(const TwoLayerGrid& grid,
                                       const Point& q,
                                       const Box* region = nullptr,
                                       const EntryPredicate& keep = {});

}  // namespace tlp

#endif  // TLP_CORE_SKYLINE_H_
