#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tlp {

std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep) {
  std::vector<RankedEntry> results;
  if (k == 0 || grid.entry_count() == 0) return results;

  const GridLayout& g = grid.layout();
  const Box& domain = g.domain();
  // Any point of the DOMAIN is within this radius of any query point. The
  // grid clamps out-of-domain entries into border tiles, though, so objects
  // farther than this can still be stored — the radius is where doubling
  // stops paying, not a proven data bound.
  const Coord max_radius =
      std::max(std::abs(q.x - domain.xl), std::abs(domain.xu - q.x)) +
      std::max(std::abs(q.y - domain.yl), std::abs(domain.yu - q.y));

  // Seed radius: a few tiles usually hold enough candidates; grow
  // geometrically on miss. Every probe is a duplicate-free §IV-E disk
  // query restricted to the annulus beyond the previous radius: the
  // candidate set is kept across doublings, so tiles fully inside the
  // previous probe are skipped instead of re-scanned and every object is
  // distance-tested (and run through `keep`) at most once. The accumulated
  // set after the last probe equals a single full-disk query at the final
  // radius.
  Coord radius = 2 * std::max(g.tile_width(), g.tile_height()) *
                 std::sqrt(static_cast<double>(k));
  Coord prev_radius = -1;  // < 0: first probe scans the whole disk
  bool final_probe = false;
  std::vector<BoxEntry> candidates;
  std::size_t scanned = 0;
  for (;;) {
    grid.DiskQueryEntries(q, radius, &candidates, prev_radius);
    for (; scanned < candidates.size(); ++scanned) {
      const BoxEntry& e = candidates[scanned];
      if (keep && !keep(e)) continue;
      results.push_back(RankedEntry{e, e.box.MinDistanceTo(q)});
    }
    if (results.size() >= k || final_probe) break;
    prev_radius = radius;
    if (radius >= max_radius) {
      // Beyond max_radius the whole domain is covered, but entries CLAMPED
      // into border tiles can sit arbitrarily far outside it. One last
      // annulus probe at infinite radius picks those up (an infinite disk's
      // tile range is every tile, and sqrt/distance arithmetic is
      // inf-clean), so k results are returned whenever k objects match
      // instead of silently fewer.
      radius = std::numeric_limits<Coord>::infinity();
      final_probe = true;
    } else {
      radius = std::min(max_radius, radius * 2);
    }
  }

  if (results.size() > k) {
    // All matching candidates within `radius` are present and the k-th
    // smallest matching distance is <= radius, so the k smallest are the
    // exact answer.
    std::nth_element(results.begin(),
                     results.begin() + static_cast<std::ptrdiff_t>(k),
                     results.end(), RankedBefore);
    results.resize(k);
  }
  std::sort(results.begin(), results.end(), RankedBefore);
  return results;
}

}  // namespace tlp
