#include "core/two_layer_grid.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "grid/parallel_build.h"
#include "grid/scan.h"

namespace tlp {

TwoLayerGrid::TwoLayerGrid(const GridLayout& layout)
    : layout_(layout),
      tiles_(layout.tile_count()),
      class_a_extent_(layout.tile_count(), Box::Empty()) {
  occupancy_.Reset(tiles_.size());
}

void TwoLayerGrid::RebuildDerivedState() {
  occupancy_.Reset(tiles_.size());
  class_a_extent_.assign(tiles_.size(), Box::Empty());
  bool out_of_domain = false;
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const Tile& tile = tiles_[t];
    if (tile.empty()) continue;
    occupancy_.Set(t);
    const BoxEntry* data = tile.entries.data();
    const std::uint32_t a_begin = tile.begin[SegmentOf(ObjectClass::kA)];
    const std::uint32_t n = tile.begin[kNumClasses];
    Box extent = Box::Empty();
    for (std::uint32_t k = 0; k < n; ++k) {
      out_of_domain |= !InDomain(data[k].box);
      if (k >= a_begin) WidenExtent(extent, data[k].box);
    }
    class_a_extent_[t] = extent;
  }
  has_out_of_domain_ = out_of_domain;
}

void TwoLayerGrid::WidenExtent(Box& extent, const Box& b) {
  // Negated so a NaN coordinate takes the whole-plane branch.
  if (!(b.xl <= b.xu && b.yl <= b.yu)) {
    constexpr Coord inf = std::numeric_limits<Coord>::infinity();
    extent = Box{-inf, -inf, inf, inf};
    return;
  }
  extent.ExpandToInclude(b);
}

bool TwoLayerGrid::InDomain(const Box& b) const {
  const Box& d = layout_.domain();
  // Written so NaN coordinates fail every comparison and count as outside.
  return b.xl >= d.xl && b.xu <= d.xu && b.yl >= d.yl && b.yu <= d.yu;
}

void TwoLayerGrid::RequireMutable(const char* op) const {
  if (frozen_) {
    throw std::logic_error(
        std::string(op) +
        " on a frozen (mmap-backed) 2-layer index; call Thaw() first");
  }
}

void TwoLayerGrid::Build(const std::vector<BoxEntry>& entries,
                         std::size_t num_threads) {
  RequireMutable("Build");
  const std::size_t n_tiles = tiles_.size();
  const std::size_t chunks =
      build_internal::EffectiveBuildThreads(num_threads, entries.size());
  ThreadPool pool(chunks);

  // Count pass: per-chunk (tile, class) histograms over disjoint entry
  // ranges, merged per tile below; it also records each entry's tile range.
  std::vector<TileRange> ranges(entries.size());
  std::vector<std::vector<std::array<std::uint32_t, kNumClasses>>>
      chunk_counts(chunks);
  ParallelForChunks(
      pool, entries.size(), chunks,
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        chunk_counts[c].assign(n_tiles, {0, 0, 0, 0});
        // Locals, not captures: the loop's stores through `counts` could
        // alias captured members, which would then be reloaded per replica.
        const GridLayout& layout = layout_;
        const BoxEntry* entry = entries.data();
        TileRange* range = ranges.data();
        std::array<std::uint32_t, kNumClasses>* counts = chunk_counts[c].data();
        for (std::size_t k = begin; k < end; ++k) {
          const Box& b = entry[k].box;
          const TileRange r = range[k] = layout.TilesFor(b);
          for (std::uint32_t j = r.j0; j <= r.j1; ++j) {
            for (std::uint32_t i = r.i0; i <= r.i1; ++i) {
              const std::size_t seg =
                  SegmentOf(ClassifyEntryInTile(layout, i, j, b));
              ++counts[layout.TileId(i, j)][seg];
            }
          }
        }
      });

  // Merge into per-tile class prefix sums and allocate each tile exactly
  // once, so classes end up contiguous.
  std::vector<std::uint64_t> tile_work(n_tiles);
  ParallelFor(pool, n_tiles, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      std::array<std::uint32_t, kNumClasses> total = {0, 0, 0, 0};
      for (const auto& counts : chunk_counts) {
        for (std::size_t s = 0; s < kNumClasses; ++s) {
          total[s] += counts[t][s];
        }
      }
      Tile& tile = tiles_[t];
      std::uint32_t acc = 0;
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        tile.begin[s] = acc;
        acc += total[s];
      }
      tile.begin[kNumClasses] = acc;
      tile.entries.vec().resize(acc);
      tile_work[t] = acc;
    }
  });

  // Place pass: each part owns a contiguous tile range and writes entries
  // at per-(tile, class) cursors of its own tiles only.
  std::vector<std::array<std::uint32_t, kNumClasses>> cursors(
      n_tiles, {0, 0, 0, 0});
  build_internal::ForEachTilePart(
      pool, tile_work, [&](std::size_t lo, std::size_t hi) {
        const GridLayout& layout = layout_;  // locals, as in the count pass
        Tile* tiles = tiles_.data();
        std::array<std::uint32_t, kNumClasses>* cursor = cursors.data();
        build_internal::ForEachOwnedReplica(
            layout, entries, ranges, lo, hi,
            [&](const BoxEntry& e, std::uint32_t i, std::uint32_t j,
                std::size_t t) {
              const std::size_t seg =
                  SegmentOf(ClassifyEntryInTile(layout, i, j, e.box));
              Tile& tile = tiles[t];
              tile.entries.vec()[tile.begin[seg] + cursor[t][seg]++] = e;
            });
      });
  // After the parts: an occupancy word covers 64 tiles and so can straddle
  // the parts' tile-ownership cuts — setting bits from the parts would race.
  RebuildDerivedState();
}

void TwoLayerGrid::Insert(const BoxEntry& entry) {
  RequireMutable("Insert");
  if (!InDomain(entry.box)) has_out_of_domain_ = true;
  const TileRange range = layout_.TilesFor(entry.box);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t tile_id = layout_.TileId(i, j);
      Tile& tile = tiles_[tile_id];
      occupancy_.Set(tile_id);
      const std::size_t seg =
          SegmentOf(ClassifyEntryInTile(layout_, i, j, entry.box));
      if (seg == SegmentOf(ObjectClass::kA)) {
        WidenExtent(class_a_extent_[tile_id], entry.box);
      }
      // O(1) insertion into the segmented vector: grow by one slot, then
      // relocate only the first element of each later segment to its
      // segment's new end (order within a segment does not matter). With
      // the D|C|B|A layout, the dominant class-A case is a plain append,
      // keeping grid updates as cheap as the 1-layer baseline's (Table VI).
      auto& v = tile.entries.vec();
      v.push_back(entry);
      for (std::size_t k = kNumClasses; k > seg + 1; --k) {
        v[tile.begin[k]] = v[tile.begin[k - 1]];
      }
      v[tile.begin[seg + 1]] = entry;
      for (std::size_t k = seg + 1; k <= kNumClasses; ++k) ++tile.begin[k];
    }
  }
}

bool TwoLayerGrid::Delete(ObjectId id, const Box& box) {
  RequireMutable("Delete");
  const TileRange range = layout_.TilesFor(box);
  bool found = false;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const std::size_t tile_id = layout_.TileId(i, j);
      Tile& tile = tiles_[tile_id];
      const std::size_t seg =
          SegmentOf(ClassifyEntryInTile(layout_, i, j, box));
      auto& v = tile.entries.vec();
      for (std::uint32_t k = tile.begin[seg]; k < tile.begin[seg + 1]; ++k) {
        if (v[k].id != id) continue;
        // Swap-remove within the segment, then close the one-slot gap by
        // rotating each later segment's last element into its front
        // (inverse of the Insert relocation).
        v[k] = v[tile.begin[seg + 1] - 1];
        for (std::size_t t = seg + 1; t < kNumClasses; ++t) {
          v[tile.begin[t] - 1] = v[tile.begin[t + 1] - 1];
        }
        v.pop_back();
        for (std::size_t t = seg + 1; t <= kNumClasses; ++t) --tile.begin[t];
        // The class-A extent stays as it is: a stale superset still bounds
        // the remaining entries, and shrinking it would cost a tile rescan.
        if (v.empty()) occupancy_.Clear(tile_id);
        found = true;
        break;
      }
    }
  }
  return found;
}

template <typename Emit>
void TwoLayerGrid::ScanTile(const Tile& tile, const Box& w, unsigned base_mask,
                            bool first_col, bool first_row,
                            Emit&& emit) const {
  const BoxEntry* data = tile.entries.data();
  auto class_span = [&](ObjectClass c, const BoxEntry*& p, std::size_t& n) {
    const std::size_t k = SegmentOf(c);
    p = data + tile.begin[k];
    n = tile.begin[k + 1] - tile.begin[k];
  };
  const BoxEntry* p = nullptr;
  std::size_t n = 0;

  // Class A is always relevant (Lemmas 1-2 never exclude it).
  class_span(ObjectClass::kA, p, n);
  TLP_STATS_CLASS_SCANNED(ObjectClass::kA, n);
  ScanPartitionDispatch(base_mask, p, n, w, emit);

  // Class B (starts before the tile in y) is relevant only in the window's
  // first row (Lemma 2). Its r.yl < T.yl <= W.yl makes the upper-end y
  // comparison redundant (cf. Table II). A skipped class segment is replicas
  // a 1-layer grid would scan and dedup post hoc — account them as avoided.
  if (first_row) {
    class_span(ObjectClass::kB, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kB, n);
    ScanPartitionDispatch(base_mask & ~kCmpYlLeWyu, p, n, w, emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kB) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kB)]);
  }
  // Class C: only in the first column (Lemma 1); x upper-end comparison is
  // redundant.
  if (first_col) {
    class_span(ObjectClass::kC, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kC, n);
    ScanPartitionDispatch(base_mask & ~kCmpXlLeWxu, p, n, w, emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kC) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kC)]);
  }
  // Class D: only in the single tile containing the window's start corner.
  if (first_col && first_row) {
    class_span(ObjectClass::kD, p, n);
    TLP_STATS_CLASS_SCANNED(ObjectClass::kD, n);
    ScanPartitionDispatch(base_mask & ~(kCmpXlLeWxu | kCmpYlLeWyu), p, n, w,
                          emit);
  } else {
    TLP_STATS_ADD(duplicates_avoided,
                  tile.begin[SegmentOf(ObjectClass::kD) + 1] -
                      tile.begin[SegmentOf(ObjectClass::kD)]);
  }
}

void TwoLayerGrid::WindowQueryTile(std::uint32_t i, std::uint32_t j,
                                   const Box& w, const TileRange& range,
                                   std::vector<ObjectId>* out) const {
  const Tile& tile = tiles_[layout_.TileId(i, j)];
  if (tile.empty()) return;
  TLP_STATS_ADD(tiles_visited, 1);
  const std::size_t first_result = out->size();
  const bool first_col = i == range.i0;
  const bool first_row = j == range.j0;
  const unsigned mask =
      TileComparisonMask(first_col, i == range.i1, first_row, j == range.j1);
  if (mask == 0 && !first_col && !first_row) {
    // Interior tile: only class A is scanned and every entry qualifies
    // without a comparison, so append the segment's id column in one growth
    // step instead of a capacity-checked push per entry. Interior tiles are
    // the bulk of any multi-tile window, and this emit loop is its hot spot.
    // The counters match ScanTile's: class A scanned, B/C/D avoided.
    const std::size_t seg = SegmentOf(ObjectClass::kA);
    const BoxEntry* p = tile.entries.data() + tile.begin[seg];
    const std::size_t n = tile.begin[seg + 1] - tile.begin[seg];
    TLP_STATS_CLASS_SCANNED(ObjectClass::kA, n);
    TLP_STATS_ADD(duplicates_avoided, tile.entries.size() - n);
    TLP_STATS_ADD(candidates, n);
    out->resize(first_result + n);
    ObjectId* dst = out->data() + first_result;
    for (std::size_t k = 0; k < n; ++k) dst[k] = p[k].id;
    return;
  }
  ScanTile(tile, w, mask, first_col, first_row,
           [&](const BoxEntry& e) { out->push_back(e.id); });
  TLP_STATS_ADD(candidates, out->size() - first_result);
}

void TwoLayerGrid::WindowQuery(const Box& w, std::vector<ObjectId>* out) const {
  TLP_STATS_ADD(queries, 1);
  const TileRange range = layout_.TilesFor(w);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(
        occupancy_, layout_, j, range.i0, range.i1,
        [&](std::uint32_t i) { WindowQueryTile(i, j, w, range, out); });
  }
}

void TwoLayerGrid::WindowCandidates(const Box& w,
                                    std::vector<Candidate>* out) const {
  TLP_STATS_ADD(queries, 1);
  const std::size_t first_result = out->size();
  const TileRange range = layout_.TilesFor(w);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    ForEachOccupiedColumn(
        occupancy_, layout_, j, range.i0, range.i1, [&](std::uint32_t i) {
          const Tile& tile = tiles_[layout_.TileId(i, j)];
          if (tile.empty()) return;
          TLP_STATS_ADD(tiles_visited, 1);
          const bool first_col = i == range.i0;
          const bool first_row = j == range.j0;
          const unsigned mask = TileComparisonMask(first_col, i == range.i1,
                                                   first_row, j == range.j1);
          // In a non-first column only classes starting inside the tile in x
          // are accessed, so W.xl < r.xl is implied for every candidate;
          // likewise for rows (paper §V).
          const bool x_implied = !first_col;
          const bool y_implied = !first_row;
          ScanTile(tile, w, mask, first_col, first_row,
                   [&](const BoxEntry& e) {
                     out->push_back(Candidate{e.id, e.box, x_implied,
                                              y_implied});
                   });
        });
  }
  TLP_STATS_ADD(candidates, out->size() - first_result);
}

template <typename Emit>
void TwoLayerGrid::ForEachDiskResult(const Point& q, Coord radius,
                                     Emit&& emit) const {
  const Box mbr{q.x - radius, q.y - radius, q.x + radius, q.y + radius};
  const TileRange range = layout_.TilesFor(mbr);

  // Per-row contiguous column ranges of tiles touching the disk (the tile
  // set S of §IV-E). Row j's nearest y-distance to q decides how far the
  // disk extends in x within that row.
  const std::uint32_t num_rows = range.j1 - range.j0 + 1;
  std::vector<RowRange> rows(num_rows);
  const Coord r2 = radius * radius;
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    Coord row_yl = layout_.domain().yl + j * layout_.tile_height();
    Coord row_yu = row_yl + layout_.tile_height();
    // Border rows own every entry CLAMPED into them from beyond the domain,
    // so once such entries exist their effective y-extent is half-infinite:
    // dy underestimates instead of cutting a row (and hence a clamped
    // entry within `radius`) that the tile box alone would rule out.
    if (has_out_of_domain_) {
      if (j == 0) row_yl = -std::numeric_limits<Coord>::infinity();
      if (j + 1 == layout_.ny()) {
        row_yu = std::numeric_limits<Coord>::infinity();
      }
    }
    const Coord dy = std::max({row_yl - q.y, Coord{0}, q.y - row_yu});
    if (dy > radius) continue;  // Row misses the disk: range stays empty.
    const Coord half_width = std::sqrt(std::max(Coord{0}, r2 - dy * dy));
    RowRange& row = rows[j - range.j0];
    row.lo = layout_.ColumnOf(q.x - half_width);
    row.hi = layout_.ColumnOf(q.x + half_width);
  }
  std::uint32_t first_row = range.j0;
  while (first_row <= range.j1 && rows[first_row - range.j0].empty()) {
    ++first_row;
  }

  // Examined in an earlier row of S? Classes that start before the tile in y
  // (B, D) use this to report each object exactly once: the object is
  // handled in the row-major-minimal tile of S it overlaps.
  auto seen_in_earlier_row = [&](const Box& b, std::uint32_t j) {
    const std::uint32_t cj0 = std::max(layout_.RowOf(b.yl), first_row);
    const std::uint32_t ci0 = layout_.ColumnOf(b.xl);
    const std::uint32_t ci1 = layout_.ColumnOf(b.xu);
    for (std::uint32_t jj = cj0; jj < j; ++jj) {
      const RowRange& rr = rows[jj - range.j0];
      if (!rr.empty() && rr.lo <= ci1 && rr.hi >= ci0) return true;
    }
    return false;
  };

  for (std::uint32_t j = first_row; j <= range.j1; ++j) {
    const RowRange& row = rows[j - range.j0];
    if (row.empty()) break;  // Nonempty rows are contiguous.
    const RowRange* prev_row =
        j > first_row ? &rows[j - 1 - range.j0] : nullptr;
    // The first/previous-row flags below depend only on the column index i,
    // never on which earlier columns were visited, so skipping empty tiles
    // through the occupancy bitset cannot change the exactly-once reporting.
    ForEachOccupiedColumn(occupancy_, layout_, j, row.lo, row.hi, [&](
                                                      std::uint32_t i) {
      const Tile& tile = tiles_[layout_.TileId(i, j)];
      if (tile.empty()) return;
      const Box tile_box = layout_.TileBox(i, j);
      // A border tile's box does not bound its clamped out-of-domain
      // entries, so the tile-box distance shortcuts below are only valid
      // for interior tiles once such entries exist. (Entries overlapping
      // the domain always geometrically overlap the tiles they register
      // in; only wholly-outside coordinates are clamped.)
      const bool tile_bounds_entries =
          !has_out_of_domain_ ||
          (i != 0 && i + 1 != layout_.nx() && j != 0 &&
           j + 1 != layout_.ny());
      TLP_STATS_ADD(tiles_visited, 1);
      // Tiles totally covered by the disk skip all distance verification
      // (§IV-E).
      const bool covered =
          tile_bounds_entries && tile_box.MaxDistanceTo(q) <= radius;
      const bool west_missing = i == row.lo;
      const bool north_missing =
          prev_row == nullptr || i < prev_row->lo || i > prev_row->hi;

      const BoxEntry* data = tile.entries.data();
      auto scan = [&](ObjectClass c, bool dedup_rows) {
        const std::size_t k = SegmentOf(c);
        const BoxEntry* p = data + tile.begin[k];
        const std::size_t n = tile.begin[k + 1] - tile.begin[k];
        TLP_STATS_CLASS_SCANNED(c, n);
        if (!covered) TLP_STATS_ADD(comparisons, n);
        for (std::size_t s = 0; s < n; ++s) {
          const BoxEntry& e = p[s];
          if (!covered && e.box.MinDistanceTo(q) > radius) continue;
          if (dedup_rows && seen_in_earlier_row(e.box, j)) {
            TLP_STATS_ADD(duplicates_avoided, 1);
            continue;
          }
          emit(e);
        }
      };

      scan(ObjectClass::kA, /*dedup_rows=*/false);
      if (north_missing) {
        scan(ObjectClass::kB, /*dedup_rows=*/true);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kB) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kB)]);
      }
      if (west_missing) {
        scan(ObjectClass::kC, /*dedup_rows=*/false);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kC) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kC)]);
      }
      if (west_missing && north_missing) {
        scan(ObjectClass::kD, /*dedup_rows=*/true);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tile.begin[SegmentOf(ObjectClass::kD) + 1] -
                          tile.begin[SegmentOf(ObjectClass::kD)]);
      }
    });
  }
}

void TwoLayerGrid::DiskQuery(const Point& q, Coord radius,
                             std::vector<ObjectId>* out) const {
  TLP_STATS_ADD(queries, 1);
  const std::size_t first_result = out->size();
  ForEachDiskResult(q, radius,
                    [&](const BoxEntry& e) { out->push_back(e.id); });
  TLP_STATS_ADD(candidates, out->size() - first_result);
}

void TwoLayerGrid::DiskQueryEntries(const Point& q, Coord radius,
                                    std::vector<BoxEntry>* out) const {
  TLP_STATS_ADD(queries, 1);
  const std::size_t first_result = out->size();
  ForEachDiskResult(q, radius,
                    [&](const BoxEntry& e) { out->push_back(e); });
  TLP_STATS_ADD(candidates, out->size() - first_result);
}

std::size_t TwoLayerGrid::SizeBytes() const {
  std::size_t bytes = tiles_.capacity() * sizeof(Tile) +
                      class_a_extent_.capacity() * sizeof(Box) +
                      occupancy_.SizeBytes();
  for (const Tile& tile : tiles_) {
    bytes += tile.entries.footprint_bytes();
  }
  return bytes;
}

std::size_t TwoLayerGrid::entry_count() const {
  std::size_t n = 0;
  for (const Tile& tile : tiles_) n += tile.entries.size();
  return n;
}

std::size_t TwoLayerGrid::ClassCount(std::uint32_t i, std::uint32_t j,
                                     ObjectClass c) const {
  const Tile& tile = tiles_[layout_.TileId(i, j)];
  const std::size_t k = SegmentOf(c);
  return tile.begin[k + 1] - tile.begin[k];
}

bool TwoLayerGrid::CheckInvariants() const {
  if (occupancy_.bit_count() != tiles_.size()) return false;
  if (class_a_extent_.size() != tiles_.size()) return false;
  // Per id: its box, the last tile it was seen in and its replica count.
  struct Replicas {
    Box box;
    std::size_t tile;
    std::size_t count;
  };
  std::unordered_map<ObjectId, Replicas> replicas;
  for (std::uint32_t j = 0; j < layout_.ny(); ++j) {
    for (std::uint32_t i = 0; i < layout_.nx(); ++i) {
      const std::size_t tile_id = layout_.TileId(i, j);
      const Tile& tile = tiles_[tile_id];
      // Every (id, box) pair must sit in tiles of TilesFor(box) only, at
      // most once in each (tiles are visited in ascending id order) — the
      // count check below then makes it exactly once in each. A Delete
      // given another box than the stored one breaks this: it removes only
      // some replicas, and the orphans later surface as duplicate results.
      for (std::size_t k = 0; k < tile.entries.size(); ++k) {
        const BoxEntry& e = tile.entries[k];
        const TileRange r = layout_.TilesFor(e.box);
        if (i < r.i0 || i > r.i1 || j < r.j0 || j > r.j1) return false;
        const auto [it, fresh] =
            replicas.try_emplace(e.id, Replicas{e.box, tile_id, 1});
        if (fresh) continue;
        if (std::memcmp(&it->second.box, &e.box, sizeof(Box)) != 0 ||
            it->second.tile == tile_id) {
          return false;
        }
        it->second.tile = tile_id;
        ++it->second.count;
      }
      // The occupancy bit must agree with the tile's emptiness, or queries
      // routed through the bitset would silently drop (or re-scan) tiles.
      if (occupancy_.Test(layout_.TileId(i, j)) != !tile.empty()) {
        return false;
      }
      if (tile.begin[0] != 0) return false;
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        if (tile.begin[s] > tile.begin[s + 1]) return false;
      }
      if (tile.begin[kNumClasses] != tile.entries.size()) return false;
      // Every entry must sit in the segment of its class; Insert/Delete
      // rotations that misplace a single element break the lemmas silently,
      // which is exactly what this catches.
      for (std::size_t s = 0; s < kNumClasses; ++s) {
        for (std::uint32_t k = tile.begin[s]; k < tile.begin[s + 1]; ++k) {
          const ObjectClass c =
              ClassifyEntryInTile(layout_, i, j, tile.entries[k].box);
          if (SegmentOf(c) != s) return false;
        }
      }
      // Every class-A entry must already be covered by its tile's extent
      // (widening by it changes nothing), or SKYLINE would prune a tile
      // holding an undominated entry.
      const Box& extent = class_a_extent_[layout_.TileId(i, j)];
      const std::size_t a = SegmentOf(ObjectClass::kA);
      for (std::uint32_t k = tile.begin[a]; k < tile.begin[a + 1]; ++k) {
        Box widened = extent;
        WidenExtent(widened, tile.entries[k].box);
        if (widened != extent) return false;
      }
    }
  }
  for (const auto& [id, rep] : replicas) {
    if (rep.count != layout_.TilesFor(rep.box).count()) return false;
  }
  return true;
}

std::pair<const BoxEntry*, std::size_t> TwoLayerGrid::ClassSpan(
    std::uint32_t i, std::uint32_t j, ObjectClass c) const {
  return ClassSpan(layout_.TileId(i, j), c);
}

std::pair<const BoxEntry*, std::size_t> TwoLayerGrid::ClassSpan(
    std::size_t tile_id, ObjectClass c) const {
  const Tile& tile = tiles_[tile_id];
  const std::size_t k = SegmentOf(c);
  return {tile.entries.data() + tile.begin[k],
          tile.begin[k + 1] - tile.begin[k]};
}

}  // namespace tlp
