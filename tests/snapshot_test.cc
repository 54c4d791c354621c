// Snapshot subsystem tests (src/persist + the grid codecs):
//  * round-trip equivalence — saved-and-loaded indices (owned and mapped)
//    answer every query exactly like the original and like brute force, on
//    uniform and zipfian data;
//  * the frozen contract of mapped loads — updates throw, Thaw() restores
//    mutability;
//  * robustness — corrupted bytes, truncations, wrong versions, foreign
//    endianness, and wrong-kind files all fail Load with a diagnostic
//    Status, never a crash (run under ASan/UBSan in CI);
//  * the kind-dispatching OpenSnapshot factory;
//  * Column<T> view/thaw mechanics the zero-copy path is built on.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/column.h"
#include "common/env.h"
#include "core/two_layer_grid.h"
#include "core/two_layer_plus_grid.h"
#include "datagen/synthetic.h"
#include "grid/grid_layout.h"
#include "grid/one_layer_grid.h"
#include "persist/open_snapshot.h"
#include "persist/snapshot_format.h"
#include "persist/snapshot_reader.h"
#include "test_util.h"

namespace tlp {
namespace {

using testing::CheckDiskAgainstBruteForce;
using testing::CheckWindowAgainstBruteForce;
using testing::RandomWindows;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<BoxEntry> MakeData(SpatialDistribution dist, std::size_t n) {
  SyntheticConfig config;
  config.cardinality = n;
  config.area = 1e-6;  // large enough that many entries straddle tiles
  config.distribution = dist;
  config.seed = 42;
  return GenerateSyntheticRects(config);
}

GridLayout SmallLayout() { return GridLayout(Box{0, 0, 1, 1}, 23, 19); }

std::vector<unsigned char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path,
               const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Queries `index` against brute force over `data` on a window/disk mix.
void CheckAllQueries(const SpatialIndex& index,
                     const std::vector<BoxEntry>& data,
                     const std::string& context) {
  for (const Box& w : RandomWindows(25, 7)) {
    CheckWindowAgainstBruteForce(index, data, w, context);
  }
  CheckDiskAgainstBruteForce(index, data, Point{0.4, 0.6}, 0.05, context);
  CheckDiskAgainstBruteForce(index, data, Point{0.05, 0.05}, 0.2, context);
}

TEST(SnapshotRoundTrip, TwoLayerGrid) {
  for (const auto dist :
       {SpatialDistribution::kUniform, SpatialDistribution::kZipfian}) {
    const auto data = MakeData(dist, 4000);
    TwoLayerGrid original(SmallLayout());
    original.Build(data);
    const std::string path = TempPath("two_layer.tlps");
    ASSERT_TRUE(original.Save(path).ok());

    TwoLayerGrid loaded(GridLayout(Box{0, 0, 2, 2}, 3, 3));
    ASSERT_TRUE(loaded.Load(path).ok());
    EXPECT_EQ(loaded.entry_count(), original.entry_count());
    EXPECT_TRUE(loaded.CheckInvariants());
    CheckAllQueries(loaded, data, "2-layer round trip");
    std::remove(path.c_str());
  }
}

TEST(SnapshotRoundTrip, OneLayerGrid) {
  for (const auto policy :
       {DedupPolicy::kReferencePoint, DedupPolicy::kHash}) {
    const auto data = MakeData(SpatialDistribution::kUniform, 3000);
    OneLayerGrid original(SmallLayout(), policy);
    original.Build(data);
    const std::string path = TempPath("one_layer.tlps");
    ASSERT_TRUE(original.Save(path).ok());

    // The dedup policy travels with the snapshot: load into an index
    // constructed with the *other* policy and expect the saved one back.
    OneLayerGrid loaded(GridLayout(Box{0, 0, 2, 2}, 3, 3),
                        policy == DedupPolicy::kReferencePoint
                            ? DedupPolicy::kHash
                            : DedupPolicy::kReferencePoint);
    ASSERT_TRUE(loaded.Load(path).ok());
    EXPECT_EQ(loaded.name(), original.name());
    EXPECT_EQ(loaded.entry_count(), original.entry_count());
    CheckAllQueries(loaded, data, "1-layer round trip");
    std::remove(path.c_str());
  }
}

TEST(SnapshotRoundTrip, TwoLayerPlusOwnedAndMapped) {
  for (const auto dist :
       {SpatialDistribution::kUniform, SpatialDistribution::kZipfian}) {
    const auto data = MakeData(dist, 4000);
    TwoLayerPlusGrid original(SmallLayout());
    original.Build(data);
    const std::string path = TempPath("two_layer_plus.tlps");
    ASSERT_TRUE(original.Save(path).ok());

    TwoLayerPlusGrid owned(GridLayout(Box{0, 0, 2, 2}, 3, 3));
    ASSERT_TRUE(owned.Load(path).ok());
    EXPECT_FALSE(owned.frozen());
    EXPECT_TRUE(owned.CheckInvariants());
    CheckAllQueries(owned, data, "2-layer+ owned round trip");

    TwoLayerPlusGrid mapped(GridLayout(Box{0, 0, 2, 2}, 3, 3));
    ASSERT_TRUE(mapped.LoadMapped(path, /*verify_checksums=*/true).ok());
    EXPECT_TRUE(mapped.frozen());
    EXPECT_TRUE(mapped.CheckInvariants());
    CheckAllQueries(mapped, data, "2-layer+ mapped round trip");
    std::remove(path.c_str());
  }
}

TEST(SnapshotRoundTrip, HeaderRecordsIndexMetadata) {
  const auto data = MakeData(SpatialDistribution::kUniform, 2000);
  TwoLayerPlusGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("meta.tlps");
  ASSERT_TRUE(original.Save(path).ok());

  SnapshotInfo info;
  ASSERT_TRUE(ReadSnapshotInfo(path, &info).ok());
  EXPECT_EQ(info.kind, SnapshotIndexKind::kTwoLayerPlusGrid);
  EXPECT_EQ(info.format_version, kSnapshotFormatVersion);
  EXPECT_EQ(info.index_size_bytes, original.SizeBytes());
  EXPECT_EQ(info.entry_count, original.record_layer().entry_count());
  EXPECT_EQ(info.file_size, ReadFile(path).size());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, SaveWhileFrozenReproducesSnapshot) {
  const auto data = MakeData(SpatialDistribution::kUniform, 1500);
  TwoLayerPlusGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("refreeze_a.tlps");
  const std::string resaved = TempPath("refreeze_b.tlps");
  ASSERT_TRUE(original.Save(path).ok());

  TwoLayerPlusGrid mapped(SmallLayout());
  ASSERT_TRUE(mapped.LoadMapped(path).ok());
  ASSERT_TRUE(mapped.Save(resaved).ok());  // save out of the mapping

  TwoLayerPlusGrid loaded(SmallLayout());
  ASSERT_TRUE(loaded.Load(resaved).ok());
  CheckAllQueries(loaded, data, "frozen re-save");
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

/// Copies `data` into entries whose struct padding (the 4 bytes after `id`)
/// holds `fill`: each record is memset before its fields are assigned, as
/// a reused heap buffer would leave it.
std::vector<BoxEntry> WithDirtyPadding(const std::vector<BoxEntry>& data,
                                       unsigned char fill) {
  std::vector<BoxEntry> out(data.size());
  for (std::size_t k = 0; k < data.size(); ++k) {
    std::memset(static_cast<void*>(&out[k]), fill, sizeof(BoxEntry));
    out[k].box = data[k].box;
    out[k].id = data[k].id;
  }
  return out;
}

/// Builds a `Grid` from `entries` and saves it to `path`.
template <typename Grid>
void BuildAndSave(const std::vector<BoxEntry>& entries,
                  const std::string& path) {
  Grid grid(SmallLayout());
  grid.Build(entries);
  ASSERT_TRUE(grid.Save(path).ok()) << path;
}

/// Every tile-entry record's padding must be written as zeros, so equal
/// grids save to identical bytes whatever their inputs' padding held: for
/// 1-layer, 2-layer and the 2-layer+ record layer.
TEST(SnapshotRoundTrip, TileEntryPaddingIsZeroAndSavesAreByteIdentical) {
  const auto data = MakeData(SpatialDistribution::kUniform, 3000);
  const auto dirty_a = WithDirtyPadding(data, 0xFF);
  const auto dirty_b = WithDirtyPadding(data, 0xA5);
  const std::string path_a = TempPath("padding_a.tlps");
  const std::string path_b = TempPath("padding_b.tlps");
  for (const std::string kind : {"1-layer", "2-layer", "2-layer+"}) {
    SCOPED_TRACE(kind);
    for (const auto& [entries, path] :
         {std::pair{&dirty_a, path_a}, std::pair{&dirty_b, path_b}}) {
      if (kind == "1-layer") {
        BuildAndSave<OneLayerGrid>(*entries, path);
      } else if (kind == "2-layer") {
        BuildAndSave<TwoLayerGrid>(*entries, path);
      } else {
        BuildAndSave<TwoLayerPlusGrid>(*entries, path);
      }
    }

    SnapshotReader reader;
    ASSERT_TRUE(reader.Open(path_a, SnapshotReader::Mode::kBuffered).ok());
    SnapshotReader::Span span;
    ASSERT_TRUE(reader.Find(kSecTileEntries, &span).ok());
    ASSERT_GT(span.size, 0u);
    ASSERT_EQ(span.size % sizeof(BoxEntry), 0u);
    constexpr std::size_t kPadding = sizeof(Box) + sizeof(ObjectId);
    static_assert(kPadding + 4 == sizeof(BoxEntry));
    std::size_t dirty_bytes = 0;
    for (std::size_t rec = 0; rec < span.size; rec += sizeof(BoxEntry)) {
      for (std::size_t b = kPadding; b < sizeof(BoxEntry); ++b) {
        dirty_bytes += span.data[rec + b] != 0;
      }
    }
    EXPECT_EQ(dirty_bytes, 0u) << "nonzero padding bytes in kSecTileEntries";
    EXPECT_TRUE(ReadFile(path_a) == ReadFile(path_b))
        << "equal grids saved to different bytes";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
  }
}

TEST(SnapshotFrozen, UpdatesThrowUntilThaw) {
  const auto data = MakeData(SpatialDistribution::kUniform, 1000);
  TwoLayerPlusGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("frozen.tlps");
  ASSERT_TRUE(original.Save(path).ok());

  TwoLayerPlusGrid index(SmallLayout());
  ASSERT_TRUE(index.LoadMapped(path).ok());
  ASSERT_TRUE(index.frozen());
  const BoxEntry extra{Box{0.101, 0.202, 0.303, 0.404},
                       static_cast<ObjectId>(data.size())};
  EXPECT_THROW(index.Insert(extra), std::logic_error);
  EXPECT_THROW(index.Delete(data[0].id, data[0].box), std::logic_error);
  EXPECT_THROW(index.Build(data), std::logic_error);

  // Thaw copies to owned storage; the mapping is released and updates work.
  ASSERT_TRUE(index.Thaw().ok());
  EXPECT_FALSE(index.frozen());
  std::remove(path.c_str());  // views (if any) would now dangle — none may

  index.Insert(extra);
  EXPECT_TRUE(index.Delete(data[1].id, data[1].box));
  EXPECT_TRUE(index.CheckInvariants());
  auto expected = data;
  expected.erase(expected.begin() + 1);
  expected.push_back(extra);
  CheckAllQueries(index, expected, "post-thaw updates");

  ASSERT_TRUE(index.Thaw().ok());  // idempotent on an owned index
}

/// The record-layer grid has the same frozen contract when its sections are
/// loaded out of a mapping: every mutating path — Build (sequential and
/// parallel), Insert, Delete — must throw instead of writing into the
/// read-only mapping. This guard is load-bearing in release builds, where
/// the old assert-based check compiled away and the first Insert after a
/// mapped load would SIGSEGV on the mapped page.
TEST(SnapshotFrozen, TwoLayerGridUpdatesThrowUntilThaw) {
  const auto data = MakeData(SpatialDistribution::kUniform, 1000);
  TwoLayerGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("frozen_record.tlps");
  ASSERT_TRUE(original.Save(path).ok());

  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, SnapshotReader::Mode::kMapped).ok());
  TwoLayerGrid index(SmallLayout());
  ASSERT_TRUE(index.LoadSnapshotSections(reader, /*mapped=*/true).ok());
  ASSERT_TRUE(index.frozen());

  const BoxEntry extra{Box{0.1, 0.2, 0.3, 0.4},
                       static_cast<ObjectId>(data.size())};
  EXPECT_THROW(index.Insert(extra), std::logic_error);
  EXPECT_THROW(index.Delete(data[0].id, data[0].box), std::logic_error);
  EXPECT_THROW(index.Build(data, /*num_threads=*/1), std::logic_error);
  EXPECT_THROW(index.Build(data, /*num_threads=*/4), std::logic_error);
  CheckAllQueries(index, data, "frozen record grid still queryable");

  ASSERT_TRUE(index.Thaw().ok());
  EXPECT_FALSE(index.frozen());
  index.Insert(extra);
  EXPECT_TRUE(index.Delete(data[0].id, data[0].box));
  EXPECT_TRUE(index.CheckInvariants());
  auto expected = data;
  expected.erase(expected.begin());
  expected.push_back(extra);
  CheckAllQueries(index, expected, "record grid post-thaw updates");
  std::remove(path.c_str());
}

/// Recomputes every checksum (section payloads, section table, header) so a
/// deliberately patched payload still passes all CRC verification — the
/// loader must reject it on *structural* validation, which is exactly what a
/// crafted (as opposed to accidentally corrupted) file exercises.
void ResealSnapshot(std::vector<unsigned char>* bytes) {
  SnapshotHeader h;
  ASSERT_GE(bytes->size(), sizeof(h));
  std::memcpy(&h, bytes->data(), sizeof(h));
  std::vector<SectionDesc> table(h.section_count);
  const std::size_t table_bytes = table.size() * sizeof(SectionDesc);
  std::memcpy(table.data(), bytes->data() + h.table_offset, table_bytes);
  for (SectionDesc& sec : table) {
    sec.crc32 = Crc32(bytes->data() + sec.offset, sec.size);
  }
  std::memcpy(bytes->data() + h.table_offset, table.data(), table_bytes);
  h.table_crc = Crc32(table.data(), table_bytes);
  h.header_crc = Crc32(&h, sizeof(h) - sizeof(std::uint32_t));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

/// Locates section `id` inside raw snapshot bytes.
SectionDesc FindSection(const std::vector<unsigned char>& bytes,
                        std::uint32_t id) {
  SnapshotHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  for (std::uint32_t i = 0; i < h.section_count; ++i) {
    SectionDesc sec;
    std::memcpy(&sec, bytes.data() + h.table_offset + i * sizeof(SectionDesc),
                sizeof(sec));
    if (sec.id == id) return sec;
  }
  ADD_FAILURE() << "section " << id << " not found";
  return SectionDesc{};
}

/// A failed load — buffered or mapped, at any validation stage — must leave
/// the live index exactly as it was: still queryable, with no column left
/// viewing a destroyed mapping (the mapped case would be a use-after-munmap
/// that ASan flags).
TEST(SnapshotRobustness, FailedLoadLeavesIndexUntouched) {
  const auto data = MakeData(SpatialDistribution::kUniform, 1200);
  TwoLayerPlusGrid index(SmallLayout());
  index.Build(data);

  // A snapshot whose record-layer sections load fine but whose 2-layer+
  // table directory is structurally wrong (with valid checksums): the old
  // code had already committed the record layer by the time this failed.
  TwoLayerPlusGrid other(GridLayout(Box{0, 0, 1, 1}, 11, 13));
  other.Build(MakeData(SpatialDistribution::kZipfian, 900));
  const std::string path = TempPath("late_fail.tlps");
  ASSERT_TRUE(other.Save(path).ok());
  std::vector<unsigned char> bytes = ReadFile(path);
  const SectionDesc dir = FindSection(bytes, kSecTableDir);
  ASSERT_GE(dir.size, sizeof(SnapshotTableDirEntry));
  SnapshotTableDirEntry entry;
  std::memcpy(&entry, bytes.data() + dir.offset, sizeof(entry));
  entry.count[0][0] += 1;  // table size now disagrees with the record layer
  std::memcpy(bytes.data() + dir.offset, &entry, sizeof(entry));
  ResealSnapshot(&bytes);
  const std::string crafted = TempPath("late_fail_crafted.tlps");
  WriteFile(crafted, bytes);

  EXPECT_FALSE(index.Load(crafted).ok());
  EXPECT_FALSE(index.frozen());
  CheckAllQueries(index, data, "after failed buffered load");

  EXPECT_FALSE(index.LoadMapped(crafted, /*verify_checksums=*/true).ok());
  EXPECT_FALSE(index.LoadMapped(crafted, /*verify_checksums=*/false).ok());
  EXPECT_FALSE(index.frozen());
  EXPECT_TRUE(index.CheckInvariants());
  CheckAllQueries(index, data, "after failed mapped load");

  // Updates must still land in owned storage, not in remnants of the
  // failed load.
  const BoxEntry extra{Box{0.11, 0.22, 0.33, 0.44},
                       static_cast<ObjectId>(data.size())};
  index.Insert(extra);
  auto expected = data;
  expected.push_back(extra);
  CheckAllQueries(index, expected, "update after failed loads");

  std::remove(path.c_str());
  std::remove(crafted.c_str());
}

/// A crafted snapshot with internally consistent CRCs whose table ids index
/// past the MBR table must be refused by the owned load and by
/// LoadMapped(verify_checksums=true); EvaluateClass would otherwise read
/// mbrs_ out of bounds at query time.
TEST(SnapshotRobustness, OutOfRangeTableIdsAreRejected) {
  const auto data = MakeData(SpatialDistribution::kUniform, 800);
  TwoLayerPlusGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("bad_ids.tlps");
  ASSERT_TRUE(original.Save(path).ok());
  std::vector<unsigned char> bytes = ReadFile(path);

  const SectionDesc ids = FindSection(bytes, kSecTableIds);
  ASSERT_GE(ids.size, sizeof(ObjectId));
  const ObjectId bogus = static_cast<ObjectId>(data.size()) + 7;
  std::memcpy(bytes.data() + ids.offset + ids.size - sizeof(ObjectId), &bogus,
              sizeof(bogus));
  ResealSnapshot(&bytes);
  const std::string crafted = TempPath("bad_ids_crafted.tlps");
  WriteFile(crafted, bytes);

  TwoLayerPlusGrid owned(SmallLayout());
  const Status s = owned.Load(crafted);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("MBR"), std::string::npos) << s.message();

  TwoLayerPlusGrid mapped(SmallLayout());
  EXPECT_FALSE(mapped.LoadMapped(crafted, /*verify_checksums=*/true).ok());

  std::remove(path.c_str());
  std::remove(crafted.c_str());
}

/// A crafted layout claiming 2^31 x 2^31 tiles would make the expected
/// begins-section byte count (tile_count * 20) wrap uint64 to 0; the loader
/// must reject the geometry/size mismatch instead of allocating 2^62 tiles.
TEST(SnapshotRobustness, OverflowingTileCountIsRejected) {
  const auto data = MakeData(SpatialDistribution::kUniform, 500);
  const std::string patched = TempPath("huge_layout.tlps");

  {
    TwoLayerGrid original(SmallLayout());
    original.Build(data);
    const std::string path = TempPath("huge_layout_src.tlps");
    ASSERT_TRUE(original.Save(path).ok());
    std::vector<unsigned char> bytes = ReadFile(path);
    std::remove(path.c_str());

    const SectionDesc layout = FindSection(bytes, kSecLayout);
    // LayoutBlob: 4 doubles, then nx, ny as u32.
    const std::uint32_t huge = 0x80000000u;  // 2^31
    std::memcpy(bytes.data() + layout.offset + 4 * sizeof(double), &huge,
                sizeof(huge));
    std::memcpy(
        bytes.data() + layout.offset + 4 * sizeof(double) + sizeof(huge),
        &huge, sizeof(huge));
    ResealSnapshot(&bytes);
    WriteFile(patched, bytes);

    TwoLayerGrid loaded(SmallLayout());
    const Status s = loaded.Load(patched);
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE(s.message().empty());
  }
  {
    // Same wrap in OneLayerGrid::Load (tile_count * 4 for kSecTileCounts).
    OneLayerGrid original(SmallLayout());
    original.Build(data);
    const std::string path = TempPath("huge_layout_1l_src.tlps");
    ASSERT_TRUE(original.Save(path).ok());
    std::vector<unsigned char> bytes = ReadFile(path);
    std::remove(path.c_str());

    const SectionDesc layout = FindSection(bytes, kSecLayout);
    const std::uint32_t huge = 0x80000000u;
    std::memcpy(bytes.data() + layout.offset + 4 * sizeof(double), &huge,
                sizeof(huge));
    std::memcpy(
        bytes.data() + layout.offset + 4 * sizeof(double) + sizeof(huge),
        &huge, sizeof(huge));
    ResealSnapshot(&bytes);
    WriteFile(patched, bytes);

    OneLayerGrid loaded(SmallLayout());
    const Status s = loaded.Load(patched);
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE(s.message().empty());
  }
  std::remove(patched.c_str());
}

TEST(SnapshotRobustness, CorruptedBytesAreRejected) {
  const auto data = MakeData(SpatialDistribution::kUniform, 800);
  TwoLayerPlusGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("pristine.tlps");
  ASSERT_TRUE(original.Save(path).ok());
  const std::vector<unsigned char> pristine = ReadFile(path);

  // Every checksummed byte range: header, each section payload, table.
  SnapshotReader reader;
  ASSERT_TRUE(reader.Open(path, SnapshotReader::Mode::kBuffered).ok());
  std::vector<std::size_t> targets;
  for (std::size_t off = 0; off < sizeof(SnapshotHeader); off += 13) {
    targets.push_back(off);
  }
  for (const SectionDesc& sec : reader.sections()) {
    targets.push_back(sec.offset);
    targets.push_back(sec.offset + sec.size / 2);
    if (sec.size > 0) targets.push_back(sec.offset + sec.size - 1);
  }
  const std::size_t table_bytes =
      reader.sections().size() * sizeof(SectionDesc);
  for (std::size_t off = 0; off < table_bytes; off += 7) {
    targets.push_back(reader.header().table_offset + off);
  }

  const std::string corrupt = TempPath("corrupt.tlps");
  for (const std::size_t off : targets) {
    ASSERT_LT(off, pristine.size());
    std::vector<unsigned char> bytes = pristine;
    bytes[off] ^= 0x5A;
    WriteFile(corrupt, bytes);

    TwoLayerPlusGrid owned(SmallLayout());
    const Status owned_status = owned.Load(corrupt);
    EXPECT_FALSE(owned_status.ok()) << "flipped byte at offset " << off;
    EXPECT_FALSE(owned_status.message().empty());

    TwoLayerPlusGrid mapped(SmallLayout());
    EXPECT_FALSE(mapped.LoadMapped(corrupt, /*verify_checksums=*/true).ok())
        << "flipped byte at offset " << off;
  }
  std::remove(path.c_str());
  std::remove(corrupt.c_str());
}

TEST(SnapshotRobustness, TruncationsAreRejected) {
  const auto data = MakeData(SpatialDistribution::kUniform, 800);
  TwoLayerGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("full.tlps");
  ASSERT_TRUE(original.Save(path).ok());
  const std::vector<unsigned char> pristine = ReadFile(path);

  const std::string cut = TempPath("truncated.tlps");
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{63},
        std::size_t{64}, pristine.size() / 2, pristine.size() - 1}) {
    WriteFile(cut,
              std::vector<unsigned char>(
                  pristine.begin(),
                  pristine.begin() + static_cast<std::ptrdiff_t>(keep)));
    TwoLayerGrid loaded(SmallLayout());
    const Status s = loaded.Load(cut);
    EXPECT_FALSE(s.ok()) << "truncated to " << keep << " bytes";
    EXPECT_FALSE(s.message().empty());
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

/// Rewrites a header field and re-seals the header CRC, simulating files
/// from a future format or a foreign-endian machine (distinct from
/// corruption: these carry *valid* checksums and must still be refused).
void PatchHeaderField(std::vector<unsigned char>* bytes, std::size_t offset,
                      std::uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
  const std::uint32_t crc = Crc32(bytes->data(), 60);
  std::memcpy(bytes->data() + 60, &crc, sizeof(crc));
}

TEST(SnapshotRobustness, ForeignVersionAndEndiannessAreRefused) {
  const auto data = MakeData(SpatialDistribution::kUniform, 500);
  TwoLayerGrid original(SmallLayout());
  original.Build(data);
  const std::string path = TempPath("versioned.tlps");
  ASSERT_TRUE(original.Save(path).ok());
  const std::vector<unsigned char> pristine = ReadFile(path);

  const std::size_t version_off = offsetof(SnapshotHeader, format_version);
  const std::size_t endian_off = offsetof(SnapshotHeader, endian_tag);
  const std::string patched = TempPath("patched.tlps");

  std::vector<unsigned char> future = pristine;
  PatchHeaderField(&future, version_off, kSnapshotFormatVersion + 1);
  WriteFile(patched, future);
  TwoLayerGrid a(SmallLayout());
  Status s = a.Load(patched);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.message();

  std::vector<unsigned char> foreign = pristine;
  PatchHeaderField(&foreign, endian_off, 0x04030201);
  WriteFile(patched, foreign);
  TwoLayerGrid b(SmallLayout());
  s = b.Load(patched);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("endian"), std::string::npos) << s.message();

  std::remove(path.c_str());
  std::remove(patched.c_str());
}

TEST(SnapshotRobustness, WrongKindAndMissingFileAreRefused) {
  const auto data = MakeData(SpatialDistribution::kUniform, 500);
  OneLayerGrid one(SmallLayout());
  one.Build(data);
  const std::string path = TempPath("one_layer_kind.tlps");
  ASSERT_TRUE(one.Save(path).ok());

  TwoLayerPlusGrid plus(SmallLayout());
  const Status s = plus.Load(path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("1-layer"), std::string::npos) << s.message();

  TwoLayerGrid grid(SmallLayout());
  EXPECT_FALSE(grid.Load(TempPath("does_not_exist.tlps")).ok());
  EXPECT_FALSE(grid.Save("/nonexistent-dir/snapshot.tlps").ok());
  std::remove(path.c_str());
}

TEST(SnapshotFactory, OpensEveryKindAndRefusesUnmappableOnes) {
  const auto data = MakeData(SpatialDistribution::kUniform, 1200);
  const std::string path = TempPath("factory.tlps");

  {
    OneLayerGrid index(SmallLayout());
    index.Build(data);
    ASSERT_TRUE(index.Save(path).ok());
    std::unique_ptr<PersistentIndex> opened;
    ASSERT_TRUE(OpenSnapshot(path, /*mapped=*/false, &opened).ok());
    EXPECT_EQ(opened->name(), "1-layer");
    CheckAllQueries(*opened, data, "factory 1-layer");
    EXPECT_FALSE(OpenSnapshot(path, /*mapped=*/true, &opened).ok());
  }
  {
    TwoLayerGrid index(SmallLayout());
    index.Build(data);
    ASSERT_TRUE(index.Save(path).ok());
    std::unique_ptr<PersistentIndex> opened;
    ASSERT_TRUE(OpenSnapshot(path, /*mapped=*/false, &opened).ok());
    EXPECT_EQ(opened->name(), "2-layer");
    CheckAllQueries(*opened, data, "factory 2-layer");
  }
  {
    TwoLayerPlusGrid index(SmallLayout());
    index.Build(data);
    ASSERT_TRUE(index.Save(path).ok());
    std::unique_ptr<PersistentIndex> opened;
    ASSERT_TRUE(OpenSnapshot(path, /*mapped=*/true, &opened).ok());
    EXPECT_EQ(opened->name(), "2-layer+");
    EXPECT_TRUE(opened->frozen());
    CheckAllQueries(*opened, data, "factory 2-layer+ mapped");
    ASSERT_TRUE(opened->Thaw().ok());
    EXPECT_FALSE(opened->frozen());
  }
  std::remove(path.c_str());
}

TEST(ColumnTest, OwnedViewAndThaw) {
  Column<int> column;
  EXPECT_FALSE(column.frozen());
  EXPECT_TRUE(column.empty());
  column.vec() = {1, 2, 3};
  EXPECT_EQ(column.size(), 3u);
  EXPECT_EQ(column[1], 2);

  const int backing[4] = {7, 8, 9, 10};
  column.SetView(backing, 4);
  EXPECT_TRUE(column.frozen());
  EXPECT_EQ(column.size(), 4u);
  EXPECT_EQ(column.data(), backing);
  EXPECT_EQ(column.footprint_bytes(), 4 * sizeof(int));

  // A copy of a frozen column views the same memory.
  Column<int> copy = column;
  EXPECT_TRUE(copy.frozen());
  EXPECT_EQ(copy.data(), backing);

  copy.Thaw();
  EXPECT_FALSE(copy.frozen());
  EXPECT_NE(copy.data(), backing);
  ASSERT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy[3], 10);
  copy.vec().push_back(11);
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_EQ(column.size(), 4u);  // the original view is unaffected
}

}  // namespace
}  // namespace tlp
