#ifndef TLP_TESTS_TEST_UTIL_H_
#define TLP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "api/spatial_index.h"
#include "common/rng.h"
#include "core/skyline.h"
#include "geometry/box.h"

namespace tlp {
namespace testing {

/// Generates `n` random rectangles in [0,1]^2 with extents up to
/// `max_extent` per dimension; `point_fraction` of them are degenerate
/// (zero-extent) boxes. Ids are 0..n-1.
inline std::vector<BoxEntry> RandomEntries(std::size_t n, double max_extent,
                                           std::uint64_t seed,
                                           double point_fraction = 0.1) {
  Rng rng(seed);
  std::vector<BoxEntry> entries;
  entries.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    double w = 0, h = 0;
    if (rng.NextDouble() >= point_fraction) {
      w = rng.NextDouble() * max_extent;
      h = rng.NextDouble() * max_extent;
    }
    Box b{x, y, std::min(1.0, x + w), std::min(1.0, y + h)};
    entries.push_back(BoxEntry{b, static_cast<ObjectId>(k)});
  }
  return entries;
}

/// Random query windows of assorted sizes, including degenerate and
/// domain-spanning ones.
inline std::vector<Box> RandomWindows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box> windows;
  windows.reserve(n + 3);
  for (std::size_t k = 0; k < n; ++k) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    const double w = rng.NextDouble() * rng.NextDouble() * 0.5;
    const double h = rng.NextDouble() * rng.NextDouble() * 0.5;
    windows.push_back(
        Box{x, y, std::min(1.0, x + w), std::min(1.0, y + h)});
  }
  windows.push_back(Box{0, 0, 1, 1});          // full domain
  windows.push_back(Box{0.5, 0.5, 0.5, 0.5});  // degenerate point window
  windows.push_back(Box{0.25, 0.25, 0.75, 0.25});  // degenerate line window
  return windows;
}

/// Asserts that `actual` holds exactly the id set `expected` (order-free)
/// and contains no duplicates.
inline void ExpectSameIdSet(std::vector<ObjectId> expected,
                            std::vector<ObjectId> actual,
                            const std::string& context = "") {
  std::vector<ObjectId> deduped = actual;
  std::sort(deduped.begin(), deduped.end());
  ASSERT_TRUE(std::adjacent_find(deduped.begin(), deduped.end()) ==
              deduped.end())
      << "duplicate results " << context;
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  ASSERT_EQ(expected, actual) << context;
}

/// Runs a window query through `index` and checks it against brute force.
inline void CheckWindowAgainstBruteForce(const SpatialIndex& index,
                                         const std::vector<BoxEntry>& data,
                                         const Box& w,
                                         const std::string& context = "") {
  std::vector<ObjectId> expected;
  for (const BoxEntry& e : data) {
    if (e.box.Intersects(w)) expected.push_back(e.id);
  }
  std::vector<ObjectId> actual;
  index.WindowQuery(w, &actual);
  ExpectSameIdSet(expected, actual, context);
}

/// Runs a disk query through `index` and checks it against brute force
/// (filter-level contract: MBR within `radius` of `q`).
inline void CheckDiskAgainstBruteForce(const SpatialIndex& index,
                                       const std::vector<BoxEntry>& data,
                                       const Point& q, Coord radius,
                                       const std::string& context = "") {
  std::vector<ObjectId> expected;
  for (const BoxEntry& e : data) {
    if (e.box.MinDistanceTo(q) <= radius) expected.push_back(e.id);
  }
  std::vector<ObjectId> actual;
  index.DiskQuery(q, radius, &actual);
  ExpectSameIdSet(expected, actual, context);
}

/// O(n^2) skyline oracle (contract: core/skyline.h). It restates the
/// per-axis distance and dominance tests rather than calling the library's,
/// with the same expressions, so results compare bit for bit. A NaN
/// attribute fails every comparison: such an entry is never dominated.
inline std::vector<SkylineEntry> BruteForceSkyline(
    const std::vector<BoxEntry>& data, const Point& q,
    const Box* region = nullptr, const EntryPredicate& keep = {}) {
  const auto axis = [](Coord lo, Coord hi, Coord v) {
    return std::max({lo - v, Coord{0}, v - hi});
  };
  const auto dominates = [](const SkylineEntry& a, const SkylineEntry& b) {
    return a.dx <= b.dx && a.dy <= b.dy && (a.dx < b.dx || a.dy < b.dy);
  };
  std::vector<SkylineEntry> in;
  for (const BoxEntry& e : data) {
    if (region != nullptr && !e.box.Intersects(*region)) continue;
    if (keep && !keep(e)) continue;
    in.push_back(SkylineEntry{e, axis(e.box.xl, e.box.xu, q.x),
                              axis(e.box.yl, e.box.yu, q.y)});
  }
  std::vector<SkylineEntry> sky;
  for (const SkylineEntry& c : in) {
    if (std::none_of(in.begin(), in.end(), [&](const SkylineEntry& o) {
          return dominates(o, c);
        })) {
      sky.push_back(c);
    }
  }
  std::sort(sky.begin(), sky.end(),
            [](const SkylineEntry& a, const SkylineEntry& b) {
              return a.entry.id < b.entry.id;
            });
  return sky;
}

/// Asserts two id-ordered skylines are bit-identical. Unlike
/// SkylineEntry's operator== it treats NaN coordinates and attributes with
/// equal bits as equal.
inline void ExpectBitIdentical(const std::vector<SkylineEntry>& got,
                               const std::vector<SkylineEntry>& want,
                               const std::string& context) {
  const auto same = [](Coord a, Coord b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t n = 0; n < got.size(); ++n) {
    const SkylineEntry& a = got[n];
    const SkylineEntry& b = want[n];
    EXPECT_EQ(a.entry.id, b.entry.id) << context << " entry " << n;
    EXPECT_TRUE(same(a.entry.box.xl, b.entry.box.xl) &&
                same(a.entry.box.yl, b.entry.box.yl) &&
                same(a.entry.box.xu, b.entry.box.xu) &&
                same(a.entry.box.yu, b.entry.box.yu) && same(a.dx, b.dx) &&
                same(a.dy, b.dy))
        << context << " entry " << n << " (id " << a.entry.id << ")";
  }
}

}  // namespace testing
}  // namespace tlp

#endif  // TLP_TESTS_TEST_UTIL_H_
