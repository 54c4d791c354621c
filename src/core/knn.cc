#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/query_stats.h"

namespace tlp {

namespace {

/// A tile on the walk's frontier. `step` names the neighbours it hands on
/// once visited, so every tile enters the frontier exactly once: q's tile
/// hands on all four, the tiles of q's column continue north or south and
/// open their row both ways, and every other tile continues its row.
struct FrontierTile {
  enum Step : unsigned char { kStart, kNorth, kSouth, kWest, kEast };
  Coord bound;
  std::uint32_t i;
  std::uint32_t j;
  Step step;
};

/// Min-heap order of the frontier: nearest lower bound first.
inline constexpr auto FartherTile = [](const FrontierTile& a,
                                       const FrontierTile& b) {
  return a.bound > b.bound;
};

/// Lower bound on the distance from `q` to any entry reported from tile
/// (i, j): the distance to its cell, with border cells extended to infinity
/// outward (they hold the entries the grid clamps in from beyond the
/// domain). Moving away from q's tile along a row or column never lowers
/// it, so the frontier heap visits tiles in nondecreasing bound order.
Coord TileBound(const GridLayout& g, const Point& q, std::uint32_t i,
                std::uint32_t j) {
  constexpr Coord inf = std::numeric_limits<Coord>::infinity();
  const Point lo = g.TileOrigin(i, j);
  const Point hi = g.TileOrigin(i + 1, j + 1);
  const Box cell{i == 0 ? -inf : lo.x, j == 0 ? -inf : lo.y,
                 i + 1 == g.nx() ? inf : hi.x, j + 1 == g.ny() ? inf : hi.y};
  const Coord d = cell.MinDistanceTo(q);
  // inf - inf against an infinite q: 0 bounds every distance.
  return d >= 0 ? d : 0;
}

}  // namespace

std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep) {
  TLP_STATS_ADD(queries, 1);
  std::vector<RankedEntry> top;  // max-heap by RankedBefore: top[0] is k-th
  if (k == 0 || std::isnan(q.x) || std::isnan(q.y)) return top;

  const GridLayout& g = grid.layout();
  const OccupancyBitset& occupancy = grid.occupancy();
  const std::uint32_t qi = g.ColumnOf(q.x);
  const std::uint32_t qj = g.RowOf(q.y);
  // Rounding slack of the stop rule: ColumnOf's cell edges and TileOrigin
  // differ by a few ulps of the coordinates involved, far below 1e-12 of
  // their magnitude.
  const Box& domain = g.domain();
  const Coord scale = std::max({std::abs(domain.xl), std::abs(domain.xu),
                                std::abs(domain.yl), std::abs(domain.yu)}) +
                      std::abs(q.x) + std::abs(q.y);
  constexpr Coord kSlack = 1e-12;

  auto offer = [&](const BoxEntry& e) {
    const RankedEntry cand{e, e.box.MinDistanceTo(q)};
    const bool full = top.size() == k;
    if (full && !RankedBefore(cand, top.front())) return;
    if (!KnnRankable(e.box, cand.distance) || (keep && !keep(e))) return;
    if (full) {
      std::pop_heap(top.begin(), top.end(), RankedBefore);
      top.back() = cand;
    } else {
      if (top.size() == top.capacity()) {
        top.reserve(std::min(k, std::max<std::size_t>(16, 2 * top.size())));
      }
      top.push_back(cand);
    }
    std::push_heap(top.begin(), top.end(), RankedBefore);
  };

  // Scans tile (i, j) under the emit rule (knn.h).
  auto scan_tile = [&](std::uint32_t i, std::uint32_t j) {
    const std::size_t t = g.TileId(i, j);
    if (!occupancy.Test(t)) return;
    TLP_STATS_ADD(tiles_visited, 1);
    const bool west = i < qi;
    const bool east = i > qi;
    const bool south = j < qj;
    const bool north = j > qj;
    for (const ObjectClass c : {ObjectClass::kA, ObjectClass::kB,
                                ObjectClass::kC, ObjectClass::kD}) {
      const auto [p, n] = grid.ClassSpan(t, c);
      if ((east && StartsBeforeX(c)) || (north && StartsBeforeY(c))) {
        TLP_STATS_ADD(duplicates_avoided, n);
        continue;
      }
      TLP_STATS_CLASS_SCANNED(c, n);
      TLP_STATS_ADD(comparisons, n);
      std::size_t rejected = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const BoxEntry& e = p[s];
        if ((west && g.ColumnOf(e.box.xu) != i) ||
            (south && g.RowOf(e.box.yu) != j)) {
          ++rejected;
          continue;
        }
        offer(e);
      }
      TLP_STATS_ADD(duplicates_avoided, rejected);
    }
  };

  std::vector<FrontierTile> frontier;
  auto push = [&](std::uint32_t i, std::uint32_t j, FrontierTile::Step step) {
    frontier.push_back(FrontierTile{TileBound(g, q, i, j), i, j, step});
    std::push_heap(frontier.begin(), frontier.end(), FartherTile);
  };
  push(qi, qj, FrontierTile::kStart);
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), FartherTile);
    const FrontierTile tile = frontier.back();
    frontier.pop_back();
    // Every tile left is at least tile.bound away, and so is every entry
    // they would report: strictly beyond the k-th distance ends the walk.
    if (top.size() == k &&
        tile.bound - kSlack * (scale + tile.bound) > top.front().distance) {
      break;
    }
    const std::uint32_t i = tile.i;
    const std::uint32_t j = tile.j;
    const bool in_q_column = tile.step <= FrontierTile::kSouth;
    if (in_q_column && tile.step != FrontierTile::kSouth && j + 1 < g.ny()) {
      push(i, j + 1, FrontierTile::kNorth);
    }
    if (in_q_column && tile.step != FrontierTile::kNorth && j > 0) {
      push(i, j - 1, FrontierTile::kSouth);
    }
    if ((in_q_column || tile.step == FrontierTile::kWest) && i > 0) {
      push(i - 1, j, FrontierTile::kWest);
    }
    if ((in_q_column || tile.step == FrontierTile::kEast) && i + 1 < g.nx()) {
      push(i + 1, j, FrontierTile::kEast);
    }
    scan_tile(i, j);
  }

  std::sort_heap(top.begin(), top.end(), RankedBefore);
  TLP_STATS_ADD(candidates, top.size());
  return top;
}

}  // namespace tlp
