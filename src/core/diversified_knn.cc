#include "core/diversified_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/query_stats.h"

namespace tlp {

namespace {

/// Euclidean distance between MBR centers — the diversity metric. Tests'
/// brute-force oracle replicates this expression operation for operation,
/// so results are compared bit-identically; keep it in sync.
Coord CenterDistance(const Box& a, const Box& b) {
  const Point ca = a.center();
  const Point cb = b.center();
  const Coord dx = ca.x - cb.x;
  const Coord dy = ca.y - cb.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

std::size_t ResolvedDivKnnFetch(const DivKnnOptions& opts) {
  constexpr std::size_t kMaxSize = std::numeric_limits<std::size_t>::max();
  std::size_t fetch = opts.fetch;
  if (fetch == 0) fetch = opts.k > kMaxSize / 4 ? kMaxSize : 4 * opts.k;
  if (fetch < opts.k) fetch = opts.k;
  return fetch;
}

std::vector<RankedEntry> DiversifiedReRank(const std::vector<RankedEntry>& pool,
                                           std::size_t k, double raw_lambda) {
  std::vector<RankedEntry> out;
  if (k == 0 || pool.empty()) return out;
  const double lambda = std::clamp(raw_lambda, 0.0, 1.0);

  const std::size_t n = pool.size();
  const std::size_t want = std::min(k, n);
  std::vector<bool> taken(n, false);
  // min_center[i]: min center distance from pool[i] to the selected set so
  // far. Updated incrementally — the min of a fixed set of doubles does not
  // depend on accumulation order, so this matches a full recomputation
  // bit for bit (the oracle in tests recomputes).
  std::vector<Coord> min_center(n,
                                std::numeric_limits<Coord>::infinity());
  out.reserve(want);

  std::size_t pick = 0;  // pool head: nearest overall, ties by id
  for (;;) {
    taken[pick] = true;
    out.push_back(pool[pick]);
    if (out.size() == want) break;
    std::size_t best = n;
    double best_score = 0;
    TLP_STATS_ADD(comparisons, n - out.size());  // one score per untaken
    for (std::size_t i = 0; i < n; ++i) {
      if (taken[i]) continue;
      const Coord d =
          CenterDistance(pool[i].entry.box, pool[pick].entry.box);
      if (d < min_center[i]) min_center[i] = d;
      const double score =
          lambda * min_center[i] - (1.0 - lambda) * pool[i].distance;
      // Strictly greater wins; ties keep the earlier pool position, i.e.
      // (distance, id) order — the deterministic tie-break.
      if (best == n || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    pick = best;
  }
  return out;
}

std::vector<RankedEntry> DiversifiedKnnQuery(const TwoLayerGrid& grid,
                                             const Point& q,
                                             const DivKnnOptions& opts,
                                             const EntryPredicate& keep) {
  if (opts.k == 0) return {};
  const std::vector<RankedEntry> pool =
      KnnEntries(grid, q, ResolvedDivKnnFetch(opts), keep);
  return DiversifiedReRank(pool, opts.k, opts.lambda);
}

}  // namespace tlp
