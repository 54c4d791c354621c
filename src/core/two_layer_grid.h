#ifndef TLP_CORE_TWO_LAYER_GRID_H_
#define TLP_CORE_TWO_LAYER_GRID_H_

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "api/spatial_index.h"
#include "common/column.h"
#include "core/classes.h"
#include "grid/grid_layout.h"
#include "grid/occupancy_bitset.h"

namespace tlp {

class SnapshotReader;
class SnapshotWriter;

/// A candidate produced by the filtering step, annotated with what the
/// two-layer evaluation already knows about it (paper §V "efficient
/// secondary filtering"): when the window starts before the candidate's tile
/// in dimension d, only classes that start inside the tile in d were
/// accessed, so W.dl < r.dl is implied and RefAvoid+ can skip that
/// comparison.
struct Candidate {
  ObjectId id = kInvalidObjectId;
  Box box;
  bool x_start_implied = false;  // W.xl < r.xl is known without comparing
  bool y_start_implied = false;  // W.yl < r.yl is known without comparing
};

/// The paper's contribution (§III, §IV): a regular grid whose tiles are
/// secondarily partitioned into classes A/B/C/D. Window queries access, per
/// tile, only the classes that cannot produce duplicates (Lemmas 1-2) with
/// at most one comparison per dimension (Lemmas 3-4, Corollary 1); no
/// deduplication step ever runs. Disk queries follow §IV-E.
class TwoLayerGrid final : public PersistentIndex {
 public:
  explicit TwoLayerGrid(const GridLayout& layout);

  /// Bulk-loads with two passes (count by entry chunks, then place by owned
  /// tile ranges); entries within a tile end up grouped contiguously as
  /// A|B|C|D. A full rebuild: any previously built or inserted entries are
  /// discarded first (contract: api/spatial_index.h). `num_threads` 0 = one
  /// per hardware core (one for small inputs), otherwise taken literally;
  /// every count runs the same code, and tile ownership in the place pass
  /// makes the built grid bit-identical for every thread count. Throws
  /// std::logic_error on a frozen (mapped-snapshot) grid.
  void Build(const std::vector<BoxEntry>& entries,
             std::size_t num_threads = 0);

  void Insert(const BoxEntry& entry) override;

  /// Removes the object `id` with bounding box `box` (the box must be the
  /// one it was inserted with; it locates the replicas). Returns false if
  /// no such entry exists. O(tile occupancy) per touched tile.
  bool Delete(ObjectId id, const Box& box);

  void WindowQuery(const Box& w, std::vector<ObjectId>* out) const override;

  /// Filtering step that also reports the §V implied-comparison flags; input
  /// of the RefAvoid+ secondary filter.
  void WindowCandidates(const Box& w, std::vector<Candidate>* out) const;

  void DiskQuery(const Point& q, Coord radius,
                 std::vector<ObjectId>* out) const override;

  /// Disk query returning the full (MBR, id) entries instead of bare ids,
  /// for consumers that need the boxes (the live view's hide and WHERE
  /// filters).
  void DiskQueryEntries(const Point& q, Coord radius,
                        std::vector<BoxEntry>* out) const;

  /// Evaluates the window `w` on a single tile (i, j), given the full tile
  /// range of `w`. Exposed for the tiles-based batch executor (§VI), which
  /// regroups per-tile subtasks across many queries.
  void WindowQueryTile(std::uint32_t i, std::uint32_t j, const Box& w,
                       const TileRange& range,
                       std::vector<ObjectId>* out) const;

  std::size_t SizeBytes() const override;
  std::string name() const override { return "2-layer"; }

  /// Snapshot persistence (src/persist; defined in core/grid_snapshots.cc).
  [[nodiscard]] Status Save(const std::string& path,
                            FileSystem* fs = nullptr) const override;
  [[nodiscard]] Status Load(const std::string& path,
                            FileSystem* fs = nullptr) override;

  /// Container-level snapshot plumbing: writes/reads this grid's sections
  /// (layout, tile begins, tile entries) inside an open snapshot. Used by
  /// Save/Load above and by TwoLayerPlusGrid, whose snapshot embeds its
  /// record layer. With `mapped` the tile entry arrays become views into
  /// the reader's mapping (which must then outlive this grid) and the grid
  /// comes back frozen: Build/Insert/Delete throw std::logic_error until
  /// ThawStorage()/Thaw() — without the guard a release-mode update would
  /// write straight into the read-only mapping (SIGSEGV, not an error).
  void AppendSnapshotSections(SnapshotWriter* writer) const;
  [[nodiscard]] Status LoadSnapshotSections(const SnapshotReader& reader,
                                            bool mapped);
  /// Copies any mapped tile-entry views into owned storage and unfreezes.
  void ThawStorage();

  /// True after a mapped LoadSnapshotSections (updates rejected).
  [[nodiscard]] bool frozen() const override { return frozen_; }
  [[nodiscard]] Status Thaw() override {
    ThawStorage();
    return Status::OK();
  }

  const GridLayout& layout() const { return layout_; }

  /// Total number of stored (MBR, id) entries, replicas included. Same value
  /// as the equally-partitioned 1-layer grid (paper §VII-B).
  std::size_t entry_count() const;

  /// Number of entries of `c` in tile (i, j); exposed for tests.
  std::size_t ClassCount(std::uint32_t i, std::uint32_t j,
                         ObjectClass c) const;

  /// Total entries (all classes) of the tile with id `tile_id`; the
  /// per-tile work estimate TwoLayerPlusGrid's parallel build balances its
  /// tile ownership on.
  std::size_t TileEntryCount(std::size_t tile_id) const {
    return tiles_[tile_id].entries.size();
  }

  /// Read-only view of the secondary partition T^c of tile (i, j) as a
  /// (pointer, length) span; used by the spatial-join module and tests.
  std::pair<const BoxEntry*, std::size_t> ClassSpan(std::uint32_t i,
                                                    std::uint32_t j,
                                                    ObjectClass c) const;
  /// As above, by tile id (layout().TileId(i, j)).
  std::pair<const BoxEntry*, std::size_t> ClassSpan(std::size_t tile_id,
                                                    ObjectClass c) const;

  /// Per-tile class-A extent matrix, indexed by tile id: entry t covers
  /// every class-A entry of tile t (see class_a_extent_). SkylineQuery
  /// bounds and region-filters whole tiles with it.
  const std::vector<Box>& class_a_extents() const { return class_a_extent_; }

  /// Full structural check of every tile's segmented vector: begin[0] == 0,
  /// begin[] monotone, begin[kNumClasses] == entries.size(), and every entry
  /// stored in the segment of its class — plus the occupancy bitset agreeing
  /// with every tile's emptiness, every class-A entry lying inside its
  /// tile's class-A extent, and every stored (id, box) pair sitting in
  /// exactly the tiles of TilesFor(box), once in each (ids are unique).
  /// O(total entries); for tests — the Insert/Delete rotation logic must
  /// preserve all seven properties.
  bool CheckInvariants() const;

  /// Per-tile occupancy bits (set iff the tile holds entries); queries use
  /// it to skip empty tile runs word-wide. TwoLayerPlusGrid's window query
  /// reuses this bitset of its record layer: a record tile is non-empty iff
  /// the corresponding decomposed tables are.
  const OccupancyBitset& occupancy() const { return occupancy_; }

 private:
  /// A tile's entries, grouped into class segments laid out D|C|B|A;
  /// segment s occupies [begin[s], begin[s+1]) within `entries` and class c
  /// lives in segment SegmentOf(c). Class A sits last so the common-case
  /// insert is an append. The entry column is a Column so a mapped snapshot
  /// can back it zero-copy (read path identical; updates require owned
  /// storage).
  struct Tile {
    Column<BoxEntry> entries;
    std::array<std::uint32_t, kNumClasses + 1> begin = {0, 0, 0, 0, 0};

    bool empty() const { return entries.empty(); }
  };

  /// Rejects updates while frozen (mapped); throws std::logic_error.
  void RequireMutable(const char* op) const;

  /// Recomputes the derived per-tile state — occupancy bitset, class-A
  /// extents and the out-of-domain flag — in one pass over every entry.
  /// Used after bulk loads and snapshot loads (all of it is derived and
  /// not persisted, so the snapshot format is unchanged).
  void RebuildDerivedState();

  /// Grows `extent` to cover the class-A entry box `b`. A box with a NaN
  /// coordinate, or an inverted one (xl > xu or yl > yu), widens it to the
  /// whole plane: its skyline attributes need not be ordered like its
  /// coordinates (a NaN attribute is never dominated), so only the
  /// all-zero bound is safe for its tile.
  static void WidenExtent(Box& extent, const Box& b);

  /// True iff `b` lies entirely inside the declared domain (NaN coordinates
  /// count as outside). Entries failing this are CLAMPED into border tiles
  /// they do not geometrically overlap, which invalidates tile-box distance
  /// reasoning there — see has_out_of_domain_.
  bool InDomain(const Box& b) const;

  /// Runs the §IV-B masked scans over the relevant classes of one tile.
  /// `emit(entry)` receives every reported entry.
  template <typename Emit>
  void ScanTile(const Tile& tile, const Box& w, unsigned base_mask,
                bool first_col, bool first_row, Emit&& emit) const;

  /// Shared §IV-E disk evaluation core: calls `emit(entry)` exactly once for
  /// every entry whose MBR lies within `radius` of `q`.
  template <typename Emit>
  void ForEachDiskResult(const Point& q, Coord radius, Emit&& emit) const;

  /// Per-row column ranges of tiles intersecting the disk (§IV-E); rows with
  /// lo > hi do not touch the disk.
  struct RowRange {
    std::uint32_t lo = 1;
    std::uint32_t hi = 0;
    bool empty() const { return lo > hi; }
  };

  GridLayout layout_;
  std::vector<Tile> tiles_;
  OccupancyBitset occupancy_;
  /// Parallel to tiles_: the union MBR of each tile's class-A entries
  /// (Box::Empty() for a tile that has none). Unlike the tile box it also
  /// bounds entries clamped in from outside the domain, and it is tight on
  /// every side. Insert widens it; Delete leaves it alone, because a stale
  /// superset still bounds what remains. Rebuilt with the occupancy.
  std::vector<Box> class_a_extent_;
  /// True if any stored entry lies (partly) outside the declared domain.
  /// Such entries are clamped into border tiles whose boxes do not bound
  /// them, so disk queries must treat border tiles conservatively: no
  /// tile-box distance shortcuts, and border rows extend to infinity when
  /// computing per-row disk extents. Sticky across Deletes (conservative);
  /// recomputed by RebuildDerivedState on bulk/snapshot loads.
  bool has_out_of_domain_ = false;
  /// True while the tile entry columns view a read-only snapshot mapping.
  bool frozen_ = false;
};

}  // namespace tlp

#endif  // TLP_CORE_TWO_LAYER_GRID_H_
