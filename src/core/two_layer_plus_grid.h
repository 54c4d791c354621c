#ifndef TLP_CORE_TWO_LAYER_PLUS_GRID_H_
#define TLP_CORE_TWO_LAYER_PLUS_GRID_H_

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/spatial_index.h"
#include "common/column.h"
#include "core/classes.h"
#include "core/two_layer_grid.h"
#include "grid/grid_layout.h"

namespace tlp {

/// 2-layer+ (paper §IV-C): on top of the record-based two-layer grid, every
/// secondary partition T^X keeps decomposed, sorted <coordinate, id> tables
/// following the Decomposition Storage Model. Border-tile comparisons then
/// become binary searches whose qualifying run is reported without touching
/// the remaining coordinates. Only the tables Table II lists are stored:
///   T^A: L_xl, L_xu, L_yl, L_yu    T^B: L_xl, L_xu, L_yu
///   T^C: L_xu, L_yl, L_yu          T^D: L_xu, L_yu
///
/// The index stores both representations ("2-layer+ essentially stores a
/// second (decomposed) copy of the rectangles inside every tile", §VII-B),
/// trading space and build time for query speed.
class TwoLayerPlusGrid final : public PersistentIndex {
 public:
  explicit TwoLayerPlusGrid(const GridLayout& layout);
  /// Out-of-line (core/grid_snapshots.cc): the held SnapshotReader is only
  /// forward-declared here.
  ~TwoLayerPlusGrid() override;

  /// Bulk load: builds the record layer, the id -> MBR table, and the
  /// decomposed sorted tables. A full rebuild — previously built or
  /// inserted entries are discarded first (contract: api/spatial_index.h).
  /// `num_threads` 0 = one per hardware core (one for small inputs),
  /// otherwise taken literally; every count runs the same code, tiles are
  /// owned by exactly one part, every table is reserved to its exact size,
  /// and ties in a table sort by (value, id), so the built index —
  /// SizeBytes() included — is identical for every thread count. Throws
  /// std::logic_error on a frozen (mapped-snapshot) index.
  void Build(const std::vector<BoxEntry>& entries,
             std::size_t num_threads = 0);

  /// Incremental insert (slow path: sorted insertion into each decomposed
  /// table; the paper recommends batch updates for the decomposed layout).
  /// Throws std::logic_error on a frozen (mapped-snapshot) index.
  void Insert(const BoxEntry& entry) override;

  /// Removes the object `id` inserted with bounding box `box` from the
  /// record layer AND every decomposed sorted table (mirror of the sorted
  /// insertion). Without this, a delete on the inner record grid alone
  /// leaves the tables stale and WindowQuery keeps returning the dead id.
  /// Returns false (and removes nothing) if no such entry exists. Throws
  /// std::logic_error on a frozen (mapped-snapshot) index.
  bool Delete(ObjectId id, const Box& box);

  void WindowQuery(const Box& w, std::vector<ObjectId>* out) const override;

  /// Distance queries cannot exploit storage decomposition (paper §VII-C),
  /// so they run on the record-based layout.
  void DiskQuery(const Point& q, Coord radius,
                 std::vector<ObjectId>* out) const override;

  std::size_t SizeBytes() const override;
  std::string name() const override { return "2-layer+"; }

  /// Snapshot persistence (src/persist; defined in core/grid_snapshots.cc).
  /// Save works in any state (a frozen index saves its mapped contents);
  /// Load deserializes into owned storage and leaves the index mutable.
  [[nodiscard]] Status Save(const std::string& path,
                            FileSystem* fs = nullptr) const override;
  [[nodiscard]] Status Load(const std::string& path,
                            FileSystem* fs = nullptr) override;

  /// Zero-copy cold start: mmap()s the snapshot read-only and points every
  /// per-tile SortedTable column and the id->MBR table straight into the
  /// mapping, making load time O(pages touched) instead of O(n log n)
  /// rebuild. The resulting index is frozen: queries work immediately,
  /// Insert/Delete throw until Thaw(). With `verify_checksums` the load
  /// CRC-checks every section AND range-checks every stored table id
  /// against the MBR table first (one full read of the file) — without it,
  /// only header/section-table integrity and structural bounds are verified
  /// eagerly, so the payload contents are trusted: use the default only on
  /// snapshots that never crossed a trust boundary (docs/PERSISTENCE.md).
  /// On any failure the index is left exactly as it was.
  [[nodiscard]] Status LoadMapped(const std::string& path,
                                  bool verify_checksums = false,
                                  FileSystem* fs = nullptr);

  [[nodiscard]] bool frozen() const override { return frozen_; }

  /// Copies all mapped columns into owned heap storage and releases the
  /// snapshot mapping; Insert/Delete work again afterwards.
  [[nodiscard]] Status Thaw() override;

  const GridLayout& layout() const { return record_.layout(); }
  const TwoLayerGrid& record_layer() const { return record_; }

  /// Structural check for tests: record-layer invariants hold, every stored
  /// table is sorted with values/ids in lockstep, and each class's table
  /// sizes equal the record layer's class count (the two representations
  /// must never drift apart across Insert/Delete sequences).
  bool CheckInvariants() const;

 private:
  /// One sorted <coordinate, id> decomposed table (structure-of-arrays).
  /// Both columns are Columns so a mapped snapshot can back them in place;
  /// the mutating members require owned (thawed) storage.
  struct SortedTable {
    Column<Coord> values;
    Column<ObjectId> ids;

    std::size_t size() const { return values.size(); }
    void Add(Coord v, ObjectId id);
    void InsertSorted(Coord v, ObjectId id);
    bool EraseSorted(Coord v, ObjectId id);
    /// Sorts both columns by (value, id) — the id tiebreak makes the order
    /// canonical, independent of fill order and sort algorithm — zipping
    /// through `scratch` (caller-owned, reused across tables) and writing
    /// back into the already-allocated columns; no per-table allocations.
    void SortByValue(std::vector<std::pair<Coord, ObjectId>>* scratch);
    std::size_t SizeBytes() const {
      return values.footprint_bytes() + ids.footprint_bytes();
    }
  };

  /// Decomposed tables of one tile; unused per-class tables stay empty
  /// (Table II). Allocated lazily per tile: the struct is large (16 table
  /// headers) and fine-granularity grids are mostly empty tiles.
  struct TileTables {
    // Index [class][coordinate]; coordinate order: xl, xu, yl, yu.
    std::array<std::array<SortedTable, 4>, kNumClasses> tables;
  };

  TileTables& MutableTables(std::size_t tile_id);

  enum CoordKind { kXl = 0, kXu = 1, kYl = 2, kYu = 3 };

  static bool TableStored(ObjectClass c, CoordKind k);

  void EvaluateClass(const TileTables& tt, ObjectClass c, unsigned mask,
                     const Box& w, const Box& tile_box,
                     std::vector<ObjectId>* out) const;

  /// Rejects updates while frozen (mapped); throws std::logic_error.
  void RequireMutable(const char* op) const;

  /// Shared deserialization core of Load/LoadMapped (grid_snapshots.cc).
  /// Commits to *this only after every validation passes; with
  /// `validate_ids` every stored table id is range-checked against the MBR
  /// table (always on for owned loads, opt-in via verify_checksums for
  /// mapped ones).
  [[nodiscard]] Status LoadFromReader(const SnapshotReader& reader, bool mapped,
                        bool validate_ids);

  TwoLayerGrid record_;
  std::vector<std::unique_ptr<TileTables>> tile_tables_;
  /// id -> MBR, for verifying residual comparisons after a binary search.
  Column<Box> mbrs_;
  /// Non-null iff frozen: keeps the snapshot mapping (and with it every
  /// column view) alive. Owned via unique_ptr so the header needs only a
  /// forward declaration of SnapshotReader.
  std::unique_ptr<SnapshotReader> snapshot_;
  bool frozen_ = false;
};

}  // namespace tlp

#endif  // TLP_CORE_TWO_LAYER_PLUS_GRID_H_
