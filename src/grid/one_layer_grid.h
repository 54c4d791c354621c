#ifndef TLP_GRID_ONE_LAYER_GRID_H_
#define TLP_GRID_ONE_LAYER_GRID_H_

#include <cstddef>
#include <string>
#include <vector>

#include "api/spatial_index.h"
#include "grid/dedup.h"
#include "grid/grid_layout.h"
#include "grid/occupancy_bitset.h"

namespace tlp {

/// The paper's 1-layer baseline: a regular main-memory grid whose tiles hold
/// flat (MBR, id) lists; objects overlapping several tiles are replicated in
/// each. Duplicate results are eliminated at query time with the reference-
/// point method [9] (or, optionally, by hashing). Window evaluation uses the
/// §IV-B comparison-reduction optimization, so the gap to TwoLayerGrid
/// isolates the benefit of the secondary partitioning itself (paper §VII-B).
class OneLayerGrid final : public PersistentIndex {
 public:
  OneLayerGrid(const GridLayout& layout,
               DedupPolicy dedup = DedupPolicy::kReferencePoint);

  /// Bulk-loads the grid: each entry is replicated into every tile its MBR
  /// intersects. A full rebuild — any previously built or inserted entries
  /// are discarded first (contract: api/spatial_index.h). `num_threads`
  /// 0 = one per hardware core (one for small inputs), otherwise taken
  /// literally; every count runs the same two-pass load, and the resulting
  /// grid is identical for every thread count (per-tile entry order
  /// matches the input order).
  void Build(const std::vector<BoxEntry>& entries,
             std::size_t num_threads = 0);

  void Insert(const BoxEntry& entry) override;

  /// Removes the object `id` inserted with bounding box `box` from every
  /// tile it was replicated into; returns false if not present.
  bool Delete(ObjectId id, const Box& box);

  void WindowQuery(const Box& w, std::vector<ObjectId>* out) const override;

  /// Disk query per the paper's baseline recipe (§VII-C): evaluate a window
  /// query on the disk's MBR with duplicate elimination, report tile
  /// contents directly when the tile is fully covered by the disk, and apply
  /// MBR distance tests elsewhere.
  void DiskQuery(const Point& q, Coord radius,
                 std::vector<ObjectId>* out) const override;

  std::size_t SizeBytes() const override;
  std::string name() const override {
    return dedup_ == DedupPolicy::kReferencePoint ? "1-layer"
                                                  : "1-layer(hash)";
  }

  /// Snapshot persistence (src/persist; defined in grid/one_layer_snapshot
  /// .cc). The baseline grid only supports owned (deserializing) loads; the
  /// dedup policy travels with the snapshot.
  [[nodiscard]] Status Save(const std::string& path,
                            FileSystem* fs = nullptr) const override;
  [[nodiscard]] Status Load(const std::string& path,
                            FileSystem* fs = nullptr) override;

  const GridLayout& layout() const { return layout_; }

  /// Total number of stored (MBR, id) entries, replicas included.
  std::size_t entry_count() const;

  /// Per-tile occupancy bits (set iff the tile holds entries); queries use
  /// it to skip empty tile runs word-wide.
  const OccupancyBitset& occupancy() const { return occupancy_; }

  /// The entries of the tile with id `tile_id`, in storage order; exposed
  /// for tests.
  const std::vector<BoxEntry>& TileEntries(std::size_t tile_id) const {
    return tiles_[tile_id];
  }

  /// Structural check: the occupancy bitset must agree with every tile's
  /// emptiness. O(tiles); for tests and the update oracle.
  bool CheckInvariants() const;

 private:
  /// Recomputes the occupancy bitset from the tiles; used after bulk loads
  /// and snapshot loads (the bitset is derived state and is not persisted).
  void RebuildOccupancy();

  GridLayout layout_;
  DedupPolicy dedup_;
  std::vector<std::vector<BoxEntry>> tiles_;
  OccupancyBitset occupancy_;
};

}  // namespace tlp

#endif  // TLP_GRID_ONE_LAYER_GRID_H_
