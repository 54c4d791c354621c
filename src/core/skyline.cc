#include "core/skyline.h"

#include <algorithm>
#include <cmath>

#include "common/query_stats.h"

namespace tlp {

std::vector<SkylineEntry> SkylineQuery(const TwoLayerGrid& grid,
                                       const Point& q, const Box* region,
                                       const EntryPredicate& keep) {
  TLP_STATS_ADD(queries, 1);
  std::vector<SkylineEntry> sky;
  if (region != nullptr && region->IsEmpty()) return sky;

  // Feeds one candidate through the incremental skyline: reject it if a
  // kept point dominates it, else admit it and evict what it dominates.
  // The skyline of a set is unique, so arrival order never changes the
  // final contents — only how much pruning the tile bounds achieve.
  const auto consider = [&](const BoxEntry& e) {
    if (region != nullptr && !e.box.Intersects(*region)) return;
    if (keep && !keep(e)) return;
    const Coord dx = SkylineAxisDistance(e.box.xl, e.box.xu, q.x);
    const Coord dy = SkylineAxisDistance(e.box.yl, e.box.yu, q.y);
    for (const SkylineEntry& s : sky) {
      if (SkylineDominates(s.dx, s.dy, dx, dy)) return;
    }
    std::erase_if(sky, [&](const SkylineEntry& s) {
      return SkylineDominates(dx, dy, s.dx, s.dy);
    });
    sky.push_back(SkylineEntry{e, dx, dy});
  };

  // True iff a kept point dominates every attribute point >= (bx, by). Such
  // a point also dominates every entry whose attributes are >= the bound,
  // and dominance is transitive, so skipping them never changes the result
  // even if that point is evicted later.
  const auto dominated = [&](Coord bx, Coord by) {
    for (const SkylineEntry& s : sky) {
      if (SkylineDominates(s.dx, s.dy, bx, by)) return true;
    }
    return false;
  };

  // Per-tile bounds from the class-A extent matrix. Every class-A entry of
  // a tile lies inside the tile's extent, and SkylineAxisDistance is
  // monotone in both interval ends under IEEE rounding, so the extent's
  // attributes lower-bound every entry's exactly, in every quadrant around
  // q and for entries clamped in from outside the domain. A box with a NaN
  // coordinate, or an inverted one, widens the extent to the whole plane
  // (bound (0, 0), never dominated). A tile without class-A entries keeps Box::Empty(), whose
  // bound (inf, inf) every finite point dominates. A non-finite q makes the
  // attributes themselves NaN-prone, so such a query scans every tile.
  const bool prune = std::isfinite(q.x) && std::isfinite(q.y);
  const auto scan = [&](std::size_t t) {
    const auto [p, n] = grid.ClassSpan(t, ObjectClass::kA);
    if (n == 0) return;  // no class-A entry, or a stale extent
    TLP_STATS_ADD(tiles_visited, 1);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kA, n);
    TLP_STATS_ADD(comparisons, n);
    for (std::size_t k = 0; k < n; ++k) consider(p[k]);
  };

  // The tile holding q first: its entries are the likeliest to be near q
  // on both axes, so the points they leave dominate most other tiles'
  // bounds. Then one sweep in storage order tests every tile inline. Any
  // visiting order gives the same skyline; ordering the tiles by bound
  // would cost more than the scans it saves.
  const GridLayout& g = grid.layout();
  const std::size_t seed = g.TileId(g.TileOf(q));
  const std::vector<Box>& extents = grid.class_a_extents();
  scan(seed);
  for (std::size_t t = 0; t < extents.size(); ++t) {
    const Box& ext = extents[t];
    if (region != nullptr && !ext.Intersects(*region)) continue;
    if (prune && dominated(SkylineAxisDistance(ext.xl, ext.xu, q.x),
                           SkylineAxisDistance(ext.yl, ext.yu, q.y))) {
      continue;
    }
    if (t != seed) scan(t);
  }

  std::sort(sky.begin(), sky.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.entry.id < b.entry.id;
            });
  TLP_STATS_ADD(candidates, sky.size());
  return sky;
}

}  // namespace tlp
