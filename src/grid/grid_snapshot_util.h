#ifndef TLP_GRID_GRID_SNAPSHOT_UTIL_H_
#define TLP_GRID_GRID_SNAPSHOT_UTIL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "geometry/box.h"
#include "grid/grid_layout.h"
#include "persist/snapshot_format.h"
#include "persist/snapshot_reader.h"
#include "persist/snapshot_writer.h"

namespace tlp {
namespace snapshot_internal {

/// kSecLayout payload: the grid geometry. 40 bytes, no padding.
struct LayoutBlob {
  double xl, yl, xu, yu;
  std::uint32_t nx, ny;
};
static_assert(sizeof(LayoutBlob) == 40);
static_assert(std::is_trivially_copyable_v<LayoutBlob>);

static_assert(sizeof(BoxEntry) == 40 &&
                  std::is_trivially_copyable_v<BoxEntry>,
              "snapshot kSecTileEntries writes raw BoxEntry arrays; revisit "
              "the format (and bump kSnapshotFormatVersion) if the layout "
              "changes");
static_assert(sizeof(Box) == 32 && std::is_trivially_copyable_v<Box>,
              "snapshot kSecMbrs writes raw Box arrays");

/// Writes kSecTileEntries: every tile's entries (`entries_of(tile)` has
/// data() and size()) in the raw BoxEntry layout, with each record's 4
/// padding bytes zeroed; written straight from memory they would carry stale
/// heap bytes, and equal grids would not save to equal files.
template <typename Tiles, typename EntriesOf>
void WriteTileEntriesSection(SnapshotWriter* writer, const Tiles& tiles,
                             EntriesOf&& entries_of) {
  constexpr std::size_t kBatch = 1024;
  // Zero-filled once; only the field bytes of a record are ever written.
  std::vector<unsigned char> staged(kBatch * sizeof(BoxEntry));
  std::size_t used = 0;
  writer->BeginSection(kSecTileEntries);
  for (const auto& tile : tiles) {
    const auto& entries = entries_of(tile);
    const BoxEntry* data = entries.data();
    for (std::size_t k = 0; k < entries.size(); ++k) {
      unsigned char* record = staged.data() + used * sizeof(BoxEntry);
      std::memcpy(record + offsetof(BoxEntry, box), &data[k].box,
                  sizeof(Box));
      std::memcpy(record + offsetof(BoxEntry, id), &data[k].id,
                  sizeof(ObjectId));
      if (++used == kBatch) {
        writer->Write(staged.data(), staged.size());
        used = 0;
      }
    }
  }
  writer->Write(staged.data(), used * sizeof(BoxEntry));
  writer->EndSection();
}

inline void WriteLayoutSection(SnapshotWriter* writer,
                               const GridLayout& layout) {
  writer->BeginSection(kSecLayout);
  const Box& d = layout.domain();
  const LayoutBlob blob{d.xl, d.yl, d.xu, d.yu, layout.nx(), layout.ny()};
  writer->WriteValue(blob);
  writer->EndSection();
}

/// Reads and validates kSecLayout; GridLayout's constructor asserts on
/// nonsense geometry, so every precondition is checked here first and
/// reported as a load error instead.
inline Status ReadLayoutSection(const SnapshotReader& reader,
                                GridLayout* out) {
  SnapshotReader::Span span;
  Status s = reader.Find(kSecLayout, &span);
  if (!s.ok()) return s;
  if (span.size != sizeof(LayoutBlob)) {
    return Status::Corruption("corrupt snapshot: layout section has " +
                              std::to_string(span.size) +
                              " bytes, expected " +
                              std::to_string(sizeof(LayoutBlob)));
  }
  LayoutBlob blob;
  std::memcpy(&blob, span.data, sizeof(blob));
  if (!std::isfinite(blob.xl) || !std::isfinite(blob.yl) ||
      !std::isfinite(blob.xu) || !std::isfinite(blob.yu) ||
      blob.xu <= blob.xl || blob.yu <= blob.yl || blob.nx < 1 ||
      blob.ny < 1) {
    return Status::Corruption("corrupt snapshot: invalid grid layout");
  }
  *out = GridLayout(Box{blob.xl, blob.yl, blob.xu, blob.yu}, blob.nx,
                    blob.ny);
  return Status::OK();
}

/// Checks that a section holds exactly `count` records of `record_size`
/// bytes (the count being derived from other, already-validated sections).
/// Compares in division form: the product count * record_size can wrap
/// std::uint64_t for hostile counts (a crafted layout may claim 2^62 tiles),
/// which would let a tiny section masquerade as a huge one and the loader
/// over-allocate.
inline Status ExpectSectionSize(const SnapshotReader::Span& span,
                                std::uint64_t count, std::size_t record_size,
                                const char* what) {
  if (span.size % record_size != 0 || span.size / record_size != count) {
    return Status::Corruption("corrupt snapshot: " + std::string(what) +
                              " section has " + std::to_string(span.size) +
                              " bytes, expected " + std::to_string(count) +
                              " records of " + std::to_string(record_size) +
                              " bytes");
  }
  return Status::OK();
}

/// Confirms the snapshot's index kind before deserializing any section.
inline Status ExpectKind(const SnapshotReader& reader, SnapshotIndexKind kind,
                         const char* loader_name) {
  const std::uint32_t got = reader.header().index_kind;
  if (got != static_cast<std::uint32_t>(kind)) {
    return Status::KindMismatch(
        std::string(loader_name) + " cannot load a '" +
        SnapshotIndexKindName(static_cast<SnapshotIndexKind>(got)) +
        "' snapshot (expected '" + SnapshotIndexKindName(kind) + "')");
  }
  return Status::OK();
}

}  // namespace snapshot_internal
}  // namespace tlp

#endif  // TLP_GRID_GRID_SNAPSHOT_UTIL_H_
