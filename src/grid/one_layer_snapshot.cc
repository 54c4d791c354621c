// Snapshot (de)serialization of the 1-layer baseline grid. The container
// format lives in src/persist; this file maps OneLayerGrid's state onto it:
//   kSecLayout      grid geometry
//   kSecDedupPolicy duplicate-elimination policy (u32)
//   kSecTileCounts  per-tile entry counts (u32 each, tile-id order)
//   kSecTileEntries concatenated per-tile BoxEntry arrays
// The baseline grid is deserialize-only (no mmap view path): it exists for
// comparison benchmarks, not production cold starts.

#include <cstring>
#include <vector>

#include "grid/grid_snapshot_util.h"
#include "grid/one_layer_grid.h"

namespace tlp {

using snapshot_internal::ExpectKind;
using snapshot_internal::ExpectSectionSize;
using snapshot_internal::ReadLayoutSection;
using snapshot_internal::WriteLayoutSection;
using snapshot_internal::WriteTileEntriesSection;

Status OneLayerGrid::Save(const std::string& path, FileSystem* fs) const {
  SnapshotWriter writer;
  Status s = writer.Open(path, SnapshotIndexKind::kOneLayerGrid, fs);
  if (!s.ok()) return s;

  WriteLayoutSection(&writer, layout_);

  writer.BeginSection(kSecDedupPolicy);
  writer.WriteValue(static_cast<std::uint32_t>(dedup_));
  writer.EndSection();

  writer.BeginSection(kSecTileCounts);
  for (const auto& tile : tiles_) {
    writer.WriteValue(static_cast<std::uint32_t>(tile.size()));
  }
  writer.EndSection();

  WriteTileEntriesSection(&writer, tiles_,
                          [](const auto& tile) -> const auto& { return tile; });

  return writer.Finalize(SizeBytes(), entry_count());
}

Status OneLayerGrid::Load(const std::string& path, FileSystem* fs) {
  SnapshotReader reader;
  Status s = reader.Open(path, SnapshotReader::Mode::kBuffered, fs);
  if (!s.ok()) return s;
  s = ExpectKind(reader, SnapshotIndexKind::kOneLayerGrid, "OneLayerGrid");
  if (!s.ok()) return s;

  GridLayout layout = layout_;
  s = ReadLayoutSection(reader, &layout);
  if (!s.ok()) return s;

  SnapshotReader::Span policy_span, counts_span, entries_span;
  if (Status f = reader.Find(kSecDedupPolicy, &policy_span); !f.ok()) return f;
  if (Status f = reader.Find(kSecTileCounts, &counts_span); !f.ok()) return f;
  if (Status f = reader.Find(kSecTileEntries, &entries_span); !f.ok()) {
    return f;
  }

  if (Status f = ExpectSectionSize(policy_span, 1, sizeof(std::uint32_t),
                                   "dedup policy");
      !f.ok()) {
    return f;
  }
  std::uint32_t policy = 0;
  std::memcpy(&policy, policy_span.data, sizeof(policy));
  if (policy != static_cast<std::uint32_t>(DedupPolicy::kReferencePoint) &&
      policy != static_cast<std::uint32_t>(DedupPolicy::kHash)) {
    return Status::Corruption("corrupt snapshot: unknown dedup policy " +
                              std::to_string(policy));
  }

  const std::size_t tile_count = layout.tile_count();
  if (Status f = ExpectSectionSize(counts_span, tile_count,
                                   sizeof(std::uint32_t), "tile counts");
      !f.ok()) {
    return f;
  }
  std::vector<std::uint32_t> counts(tile_count);
  std::memcpy(counts.data(), counts_span.data,
              tile_count * sizeof(std::uint32_t));
  // Cap the running total by what the entries section can physically hold
  // so the uint64 sum cannot wrap on a crafted file (u32 addends can never
  // jump past the cap unseen).
  const std::uint64_t max_entries = entries_span.size / sizeof(BoxEntry);
  std::uint64_t total = 0;
  for (const std::uint32_t c : counts) {
    total += c;
    if (total > max_entries) {
      return Status::Corruption(
          "corrupt snapshot: tile counts claim more entries than the "
          "entries section holds");
    }
  }
  if (Status f =
          ExpectSectionSize(entries_span, total, sizeof(BoxEntry), "entries");
      !f.ok()) {
    return f;
  }

  // Everything validated — only now replace this grid's state.
  layout_ = layout;
  dedup_ = static_cast<DedupPolicy>(policy);
  std::vector<std::vector<BoxEntry>> tiles(tile_count);
  const auto* entry =
      reinterpret_cast<const BoxEntry*>(entries_span.data);
  for (std::size_t t = 0; t < tile_count; ++t) {
    tiles[t].assign(entry, entry + counts[t]);
    entry += counts[t];
  }
  tiles_ = std::move(tiles);
  // Occupancy is derived state, not a snapshot section; rebuild in O(tiles).
  RebuildOccupancy();
  return Status::OK();
}

}  // namespace tlp
