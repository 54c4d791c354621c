#include "core/two_layer_plus_grid.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/branchless_search.h"
#include "grid/parallel_build.h"
#include "grid/scan.h"
// Completes the forward-declared SnapshotReader the snapshot_ member holds.
#include "persist/snapshot_reader.h"

namespace tlp {

namespace {

/// One executable comparison candidate for a binary search (§IV-C).
struct SearchPlan {
  unsigned flag = 0;          // the kCmp* bit this search implements
  int coord = 0;              // CoordKind of the table to search
  bool ge = false;            // true: keep values >= bound; false: <= bound
  Coord bound = 0;
  double kept_fraction = 1.0; // expected fraction of the partition kept
};

}  // namespace

void TwoLayerPlusGrid::SortedTable::Add(Coord v, ObjectId id) {
  values.vec().push_back(v);
  ids.vec().push_back(id);
}

void TwoLayerPlusGrid::SortedTable::InsertSorted(Coord v, ObjectId id) {
  auto& vals = values.vec();
  const auto it = std::lower_bound(vals.begin(), vals.end(), v);
  const auto pos = it - vals.begin();
  vals.insert(it, v);
  ids.vec().insert(ids.vec().begin() + pos, id);
}

void TwoLayerPlusGrid::SortedTable::SortByValue(
    std::vector<std::pair<Coord, ObjectId>>* scratch) {
  const std::size_t n = size();
  if (n <= 1) return;
  auto& vals = values.vec();
  auto& table_ids = ids.vec();
  scratch->resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    (*scratch)[k] = {vals[k], table_ids[k]};
  }
  std::sort(scratch->begin(), scratch->end());
  for (std::size_t k = 0; k < n; ++k) {
    vals[k] = (*scratch)[k].first;
    table_ids[k] = (*scratch)[k].second;
  }
}

bool TwoLayerPlusGrid::SortedTable::EraseSorted(Coord v, ObjectId id) {
  // The value locates the run of equal coordinates; the id picks the entry
  // within it (inverse of InsertSorted).
  auto& vals = values.vec();
  for (auto it = std::lower_bound(vals.begin(), vals.end(), v);
       it != vals.end() && *it == v; ++it) {
    const auto pos = it - vals.begin();
    if (ids[static_cast<std::size_t>(pos)] != id) continue;
    vals.erase(it);
    ids.vec().erase(ids.vec().begin() + pos);
    return true;
  }
  return false;
}

bool TwoLayerPlusGrid::TableStored(ObjectClass c, CoordKind k) {
  // Table II: class B never compares its yl (it is before the tile in y),
  // class C never compares its xl, class D compares only xu and yu.
  switch (c) {
    case ObjectClass::kA:
      return true;
    case ObjectClass::kB:
      return k != kYl;
    case ObjectClass::kC:
      return k != kXl;
    case ObjectClass::kD:
      return k == kXu || k == kYu;
  }
  return false;
}

TwoLayerPlusGrid::TwoLayerPlusGrid(const GridLayout& layout)
    : record_(layout), tile_tables_(layout.tile_count()) {}

TwoLayerPlusGrid::TileTables& TwoLayerPlusGrid::MutableTables(
    std::size_t tile_id) {
  auto& slot = tile_tables_[tile_id];
  if (slot == nullptr) slot = std::make_unique<TileTables>();
  return *slot;
}

void TwoLayerPlusGrid::RequireMutable(const char* op) const {
  if (frozen_) {
    throw std::logic_error(
        std::string(op) +
        " on a frozen (mmap-backed) 2-layer+ index; call Thaw() first");
  }
}

void TwoLayerPlusGrid::Build(const std::vector<BoxEntry>& entries,
                             std::size_t num_threads) {
  RequireMutable("Build");
  // Full rebuild: drop the decomposed state of any previous Build/Insert
  // (the record layer rebuilds itself). Without this, a second Build used
  // to append into the existing sorted tables and keep stale mbrs_ slots,
  // so rebuilt indices returned duplicate results.
  std::vector<std::unique_ptr<TileTables>>(record_.layout().tile_count())
      .swap(tile_tables_);
  mbrs_ = Column<Box>();

  // id -> MBR table, sized once. Kept sequential: ids may repeat (last
  // write wins, like Insert), which a chunked parallel fill would race on.
  ObjectId max_id = 0;
  for (const BoxEntry& e : entries) max_id = std::max(max_id, e.id);
  if (!entries.empty()) {
    mbrs_.vec().resize(static_cast<std::size_t>(max_id) + 1);
    for (const BoxEntry& e : entries) mbrs_.vec()[e.id] = e.box;
  }

  // The record layer goes first: its per-tile class counts size this
  // layer's tables exactly, and its tile populations drive the ownership
  // split.
  const GridLayout& g = record_.layout();
  const std::size_t threads =
      build_internal::EffectiveBuildThreads(num_threads, entries.size());
  record_.Build(entries, threads);
  ThreadPool pool(threads);
  const std::vector<TileRange> ranges =
      build_internal::ComputeTileRanges(pool, g, entries);
  std::vector<std::uint64_t> tile_work(g.tile_count());
  for (std::size_t t = 0; t < tile_work.size(); ++t) {
    tile_work[t] = record_.TileEntryCount(t);
  }

  // Each part owns a contiguous tile range: it preallocates its tiles'
  // stored tables from the record layer's class counts, fills them in
  // input order (one writer per tile — race-free), then zip-sorts them in
  // place. Sorting inside the same part keeps its work proportional to its
  // entries.
  build_internal::ForEachTilePart(
      pool, tile_work, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          if (record_.TileEntryCount(t) == 0) continue;  // slot stays null
          const auto i = static_cast<std::uint32_t>(t % g.nx());
          const auto j = static_cast<std::uint32_t>(t / g.nx());
          TileTables& tt = MutableTables(t);
          for (std::size_t c = 0; c < kNumClasses; ++c) {
            const auto cls = static_cast<ObjectClass>(c);
            const std::size_t count = record_.ClassCount(i, j, cls);
            if (count == 0) continue;
            for (std::size_t k = 0; k < 4; ++k) {
              if (!TableStored(cls, static_cast<CoordKind>(k))) continue;
              tt.tables[c][k].values.vec().reserve(count);
              tt.tables[c][k].ids.vec().reserve(count);
            }
          }
        }
        build_internal::ForEachOwnedReplica(
            g, entries, ranges, lo, hi,
            [&](const BoxEntry& e, std::uint32_t i, std::uint32_t j,
                std::size_t t) {
              const Box& b = e.box;
              const Coord coords[4] = {b.xl, b.xu, b.yl, b.yu};
              const ObjectClass c = ClassifyEntryInTile(g, i, j, b);
              auto& tables =
                  tile_tables_[t]->tables[static_cast<std::size_t>(c)];
              for (std::size_t k = 0; k < 4; ++k) {
                if (TableStored(c, static_cast<CoordKind>(k))) {
                  tables[k].Add(coords[k], e.id);
                }
              }
            });
        std::vector<std::pair<Coord, ObjectId>> scratch;
        for (std::size_t t = lo; t < hi; ++t) {
          TileTables* tt = tile_tables_[t].get();
          if (tt == nullptr) continue;
          for (auto& class_tables : tt->tables) {
            for (SortedTable& table : class_tables) {
              table.SortByValue(&scratch);
            }
          }
        }
      });
}

void TwoLayerPlusGrid::Insert(const BoxEntry& entry) {
  RequireMutable("Insert");
  record_.Insert(entry);
  if (entry.id >= mbrs_.size()) mbrs_.vec().resize(entry.id + 1);
  mbrs_.vec()[entry.id] = entry.box;
  const GridLayout& g = record_.layout();
  const TileRange range = g.TilesFor(entry.box);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      const ObjectClass c = ClassifyEntryInTile(g, i, j, entry.box);
      auto& tables =
          MutableTables(g.TileId(i, j)).tables[static_cast<std::size_t>(c)];
      const Coord coords[4] = {entry.box.xl, entry.box.xu, entry.box.yl,
                               entry.box.yu};
      for (std::size_t k = 0; k < 4; ++k) {
        if (TableStored(c, static_cast<CoordKind>(k))) {
          tables[k].InsertSorted(coords[k], entry.id);
        }
      }
    }
  }
}

bool TwoLayerPlusGrid::Delete(ObjectId id, const Box& box) {
  RequireMutable("Delete");
  // The record layer is authoritative for existence; it also guards against
  // a wrong `box` that would otherwise desynchronize the two layouts.
  if (!record_.Delete(id, box)) return false;
  const GridLayout& g = record_.layout();
  const TileRange range = g.TilesFor(box);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    for (std::uint32_t i = range.i0; i <= range.i1; ++i) {
      auto& slot = tile_tables_[g.TileId(i, j)];
      if (slot == nullptr) continue;
      const ObjectClass c = ClassifyEntryInTile(g, i, j, box);
      auto& tables = slot->tables[static_cast<std::size_t>(c)];
      const Coord coords[4] = {box.xl, box.xu, box.yl, box.yu};
      for (std::size_t k = 0; k < 4; ++k) {
        if (TableStored(c, static_cast<CoordKind>(k))) {
          tables[k].EraseSorted(coords[k], id);
        }
      }
    }
  }
  return true;
}

void TwoLayerPlusGrid::EvaluateClass(const TileTables& tt, ObjectClass c,
                                     unsigned mask, const Box& w,
                                     const Box& tile_box,
                                     std::vector<ObjectId>* out) const {
  const auto& tables = tt.tables[static_cast<std::size_t>(c)];
  if (tables[kXu].size() == 0) return;  // Empty partition (xu always stored).

  if (mask == 0) {
    // Interior tile: every rectangle of the partition is a result without
    // any comparison (Corollary 1 / Fig. 4 center tiles).
    const auto& ids = tables[kXu].ids;
    TLP_STATS_CLASS_SCANNED(c, ids.size());
    TLP_STATS_ADD(candidates, ids.size());
    out->insert(out->end(), ids.begin(), ids.end());
    return;
  }

  // Build the candidate searches for the comparisons in `mask` and pick the
  // one expected to keep the fewest entries ("the dimension which is covered
  // the least by W", §IV-C). Kept-fraction estimates assume the partition's
  // endpoint values spread across the tile extent.
  const Coord tw = tile_box.width();
  const Coord th = tile_box.height();
  SearchPlan best;
  bool have_best = false;
  auto consider = [&](unsigned flag, CoordKind k, bool ge, Coord bound,
                      double kept) {
    if ((mask & flag) == 0) return;
    // Degenerate windows and extreme-aspect tiles can make the estimate
    // non-finite: 0/0 gives NaN, overflow gives +-inf. NaN compares false
    // against everything, so an unguarded NaN would beat any finite best in
    // the `<` below (and std::max(0.0, NaN) is 0.0 — the old clamp made it
    // win outright). Send NaN to 2.0, which strictly loses to every clamped
    // [0, 1] estimate; ties keep the first candidate in the fixed
    // consideration order (xu, xl, yu, yl), so the plan is deterministic.
    if (std::isnan(kept)) {
      kept = 2.0;
    } else {
      kept = std::clamp(kept, 0.0, 1.0);
    }
    SearchPlan plan{flag, k, ge, bound, kept};
    if (!have_best || plan.kept_fraction < best.kept_fraction) {
      best = plan;
      have_best = true;
    }
  };
  consider(kCmpXuGeWxl, kXu, true, w.xl,
           static_cast<double>(tile_box.xu - w.xl) / tw);
  consider(kCmpXlLeWxu, kXl, false, w.xu,
           static_cast<double>(w.xu - tile_box.xl) / tw);
  consider(kCmpYuGeWyl, kYu, true, w.yl,
           static_cast<double>(tile_box.yu - w.yl) / th);
  consider(kCmpYlLeWyu, kYl, false, w.yu,
           static_cast<double>(w.yu - tile_box.yl) / th);

  const SortedTable& table = tables[static_cast<std::size_t>(best.coord)];
  // A binary search over n sorted values costs about log2(n)+1 probes.
  TLP_STATS_ADD(binary_search_probes, std::bit_width(table.size()));
  std::size_t begin = 0;
  std::size_t end = table.size();
  // Branchless probes (conditional-move steps + prefetch) return exactly the
  // std::lower_bound / std::upper_bound indices; see common/
  // branchless_search.h.
  if (best.ge) {
    begin = BranchlessLowerBound(table.values.data(), table.size(),
                                 best.bound);
  } else {
    end = BranchlessUpperBound(table.values.data(), table.size(), best.bound);
  }
  TLP_STATS_CLASS_SCANNED(c, end - begin);

  const unsigned residual = mask & ~best.flag;
  if (residual == 0) {
    TLP_STATS_ADD(candidates, end - begin);
    out->insert(out->end(), table.ids.begin() + begin,
                table.ids.begin() + end);
    return;
  }
  // Verify the remaining comparisons on the full MBR (fetched by id), as the
  // paper does for two-comparison border tiles. The range's planned
  // comparisons are accounted once, whichever loop below decides them.
  const auto residual_count = static_cast<std::size_t>(std::popcount(residual));
  TLP_STATS_ADD(comparisons, (end - begin) * residual_count);
  const std::size_t first_result = out->size();
  const ObjectId* ids = table.ids.data();
  if (residual_count >= 2) {
    // The vector kernel pays off here (unlike the border-tile scans, which
    // short-circuit predictably): a table range mixes passing and failing
    // entries, so the scalar multi-compare loop mispredicts, while the
    // transposed 4-box kernel decides four entries branch-free. Only
    // worthwhile with two or more residual comparisons — a single compare
    // is cheaper left scalar. The id -> MBR fetch is a random gather over
    // the mbrs_ table; prefetch a group ahead so the misses overlap.
    const simd::LaneBounds lb = LaneBoundsForMask(w, residual);
    constexpr std::size_t kVerifyPrefetchAhead = 8;
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
      if (k + kVerifyPrefetchAhead + 4 <= end) {
        TLP_PREFETCH_RO(&mbrs_[ids[k + kVerifyPrefetchAhead]]);
        TLP_PREFETCH_RO(&mbrs_[ids[k + kVerifyPrefetchAhead + 1]]);
        TLP_PREFETCH_RO(&mbrs_[ids[k + kVerifyPrefetchAhead + 2]]);
        TLP_PREFETCH_RO(&mbrs_[ids[k + kVerifyPrefetchAhead + 3]]);
      }
      const Coord* lanes[4] = {&mbrs_[ids[k]].xl, &mbrs_[ids[k + 1]].xl,
                               &mbrs_[ids[k + 2]].xl, &mbrs_[ids[k + 3]].xl};
      const unsigned hits = simd::MatchesMask4(lanes, lb);
      if (hits == 0) continue;
      for (unsigned s = 0; s < 4; ++s) {
        if ((hits >> s) & 1u) out->push_back(ids[k + s]);
      }
    }
    for (; k < end; ++k) {
      if (simd::Matches(&mbrs_[ids[k]].xl, lb)) out->push_back(ids[k]);
    }
  } else {
    for (std::size_t k = begin; k < end; ++k) {
      if (PassesComparisonMask(mbrs_[ids[k]], w, residual)) {
        out->push_back(ids[k]);
      }
    }
  }
  TLP_STATS_ADD(candidates, out->size() - first_result);
}

void TwoLayerPlusGrid::WindowQuery(const Box& w,
                                   std::vector<ObjectId>* out) const {
  TLP_STATS_ADD(queries, 1);
  const GridLayout& g = record_.layout();
  const TileRange range = g.TilesFor(w);
  for (std::uint32_t j = range.j0; j <= range.j1; ++j) {
    // The record layer's occupancy doubles as this layer's: a record tile is
    // non-empty exactly when the decomposed tables hold entries
    // (CheckInvariants pins the mirror property).
    ForEachOccupiedColumn(record_.occupancy(), g, j, range.i0, range.i1, [&](
                                                      std::uint32_t i) {
      const TileTables* tt = tile_tables_[g.TileId(i, j)].get();
      if (tt == nullptr) return;
      TLP_STATS_ADD(tiles_visited, 1);
      const bool first_col = i == range.i0;
      const bool first_row = j == range.j0;
      const unsigned mask = TileComparisonMask(first_col, i == range.i1,
                                               first_row, j == range.j1);
      const Box tile_box = g.TileBox(i, j);
      EvaluateClass(*tt, ObjectClass::kA, mask, w, tile_box, out);
      if (first_row) {
        EvaluateClass(*tt, ObjectClass::kB, mask & ~kCmpYlLeWyu, w, tile_box,
                      out);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tt->tables[static_cast<int>(ObjectClass::kB)][kXu]
                          .size());
      }
      if (first_col) {
        EvaluateClass(*tt, ObjectClass::kC, mask & ~kCmpXlLeWxu, w, tile_box,
                      out);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tt->tables[static_cast<int>(ObjectClass::kC)][kXu]
                          .size());
      }
      if (first_col && first_row) {
        EvaluateClass(*tt, ObjectClass::kD,
                      mask & ~(kCmpXlLeWxu | kCmpYlLeWyu), w, tile_box, out);
      } else {
        TLP_STATS_ADD(duplicates_avoided,
                      tt->tables[static_cast<int>(ObjectClass::kD)][kXu]
                          .size());
      }
    });
  }
}

void TwoLayerPlusGrid::DiskQuery(const Point& q, Coord radius,
                                 std::vector<ObjectId>* out) const {
  record_.DiskQuery(q, radius, out);
}

bool TwoLayerPlusGrid::CheckInvariants() const {
  if (!record_.CheckInvariants()) return false;
  const GridLayout& g = record_.layout();
  for (std::uint32_t j = 0; j < g.ny(); ++j) {
    for (std::uint32_t i = 0; i < g.nx(); ++i) {
      const TileTables* tt = tile_tables_[g.TileId(i, j)].get();
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        const auto cls = static_cast<ObjectClass>(c);
        const std::size_t expected = record_.ClassCount(i, j, cls);
        for (std::size_t k = 0; k < 4; ++k) {
          const SortedTable* table =
              tt != nullptr ? &tt->tables[c][k] : nullptr;
          const std::size_t n = table != nullptr ? table->size() : 0;
          if (!TableStored(cls, static_cast<CoordKind>(k))) {
            if (n != 0) return false;
            continue;
          }
          // Each stored table mirrors the record layer's partition exactly.
          if (n != expected) return false;
          if (table == nullptr) continue;
          if (table->ids.size() != n) return false;
          if (!std::is_sorted(table->values.begin(), table->values.end())) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

std::size_t TwoLayerPlusGrid::SizeBytes() const {
  // mbrs_ duplicates the GeometryStore's MBR array and is excluded, matching
  // how the paper accounts index size.
  std::size_t bytes = record_.SizeBytes();
  bytes += tile_tables_.capacity() * sizeof(tile_tables_[0]);
  for (const auto& tt : tile_tables_) {
    if (tt == nullptr) continue;
    bytes += sizeof(TileTables);
    for (const auto& class_tables : tt->tables) {
      for (const SortedTable& table : class_tables) bytes += table.SizeBytes();
    }
  }
  return bytes;
}

}  // namespace tlp
