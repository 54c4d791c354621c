#ifndef TLP_CORE_KNN_H_
#define TLP_CORE_KNN_H_

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

/// k-nearest-neighbor query over a two-layer grid (the paper's §VIII
/// "future work" query type), at the filtering level: the k entries
/// nearest to `q` by MBR minimum distance that satisfy `keep`, sorted by
/// RankedBefore. Candidates failing `keep` do not count toward k.
///
/// Strategy: duplicate-free expanding disk queries (§IV-E machinery) with
/// geometrically growing radius, seeded from the grid granularity. Once a
/// radius holds >= k matching candidates, the k-th smallest matching
/// distance d_k <= radius bounds the true answer, so the first k are exact.
/// Entries outside the declared domain (the grid clamps them into border
/// tiles) are covered by a final infinite-radius probe when the
/// domain-derived doubling bound runs out, so the query returns fewer than
/// k results only when fewer than k objects match; ties beyond position k
/// are cut by id order.
std::vector<RankedEntry> KnnEntries(const TwoLayerGrid& grid, const Point& q,
                                    std::size_t k,
                                    const EntryPredicate& keep = {});

}  // namespace tlp

#endif  // TLP_CORE_KNN_H_
