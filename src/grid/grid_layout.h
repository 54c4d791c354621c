#ifndef TLP_GRID_GRID_LAYOUT_H_
#define TLP_GRID_GRID_LAYOUT_H_

#include <cstdint>
#include <cstddef>

#include "geometry/box.h"

namespace tlp {

/// Integer coordinates of a tile in a regular grid.
struct TileCoord {
  std::uint32_t i = 0;  // column (x)
  std::uint32_t j = 0;  // row (y)

  friend bool operator==(const TileCoord& a, const TileCoord& b) {
    return a.i == b.i && a.j == b.j;
  }
};

/// Inclusive rectangular range of tiles [i0..i1] x [j0..j1].
struct TileRange {
  std::uint32_t i0 = 0, i1 = 0, j0 = 0, j1 = 0;

  std::size_t count() const {
    return static_cast<std::size_t>(i1 - i0 + 1) * (j1 - j0 + 1);
  }
};

/// Geometry of an N x M regular grid over a rectangular domain. Provides the
/// O(1) algebraic tile location of paper §IV ("the tiles which intersect W
/// ... can be found in O(1) time, by algebraic operations").
///
/// Tiles are addressed row-major: id = j * nx + i. Tile (i, j) covers the
/// half-open cell [xl + i*tw, xl + (i+1)*tw) x [yl + j*th, yl + (j+1)*th);
/// coordinates on the far domain border are clamped into the last tile.
class GridLayout {
 public:
  /// Builds an nx x ny grid over `domain`. nx, ny >= 1; domain must have
  /// positive extent in both dimensions.
  GridLayout(const Box& domain, std::uint32_t nx, std::uint32_t ny);

  std::uint32_t nx() const { return nx_; }
  std::uint32_t ny() const { return ny_; }
  std::size_t tile_count() const {
    return static_cast<std::size_t>(nx_) * ny_;
  }
  const Box& domain() const { return domain_; }
  Coord tile_width() const { return tile_w_; }
  Coord tile_height() const { return tile_h_; }

  /// Column index of coordinate x, clamped into [0, nx). Inline, with
  /// RowOf and TilesFor: build, update and query loops call them per entry.
  std::uint32_t ColumnOf(Coord x) const {
    const Coord rel = (x - domain_.xl) * inv_tile_w_;
    // Negated comparison so NaN (x = NaN, or 0 * inf from infinite
    // coordinates on an infinite-width domain) lands in column 0
    // deterministically.
    if (!(rel > 0)) return 0;
    // Clamp in floating point BEFORE any integer cast: converting a Coord
    // beyond int64 range (x ~ 1e300 on a unit domain, or +inf) is undefined
    // behaviour, not a saturating min.
    if (rel >= static_cast<Coord>(nx_ - 1)) return nx_ - 1;
    return static_cast<std::uint32_t>(rel);
  }
  /// Row index of coordinate y, clamped into [0, ny).
  std::uint32_t RowOf(Coord y) const {
    const Coord rel = (y - domain_.yl) * inv_tile_h_;
    if (!(rel > 0)) return 0;
    if (rel >= static_cast<Coord>(ny_ - 1)) return ny_ - 1;
    return static_cast<std::uint32_t>(rel);
  }

  TileCoord TileOf(const Point& p) const {
    return TileCoord{ColumnOf(p.x), RowOf(p.y)};
  }

  std::size_t TileId(std::uint32_t i, std::uint32_t j) const {
    return static_cast<std::size_t>(j) * nx_ + i;
  }
  std::size_t TileId(const TileCoord& t) const { return TileId(t.i, t.j); }

  /// Spatial extent of tile (i, j) as a box.
  Box TileBox(std::uint32_t i, std::uint32_t j) const;

  /// Lower-left corner of tile (i, j); the anchor used for classifying
  /// rectangles into the A/B/C/D secondary partitions.
  Point TileOrigin(std::uint32_t i, std::uint32_t j) const {
    return Point{domain_.xl + i * tile_w_, domain_.yl + j * tile_h_};
  }

  /// All tiles whose cells intersect box `b` (clamped to the domain).
  TileRange TilesFor(const Box& b) const {
    TileRange r;
    r.i0 = ColumnOf(b.xl);
    r.i1 = ColumnOf(b.xu);
    r.j0 = RowOf(b.yl);
    r.j1 = RowOf(b.yu);
    return r;
  }

 private:
  Box domain_;
  std::uint32_t nx_;
  std::uint32_t ny_;
  Coord tile_w_;
  Coord tile_h_;
  Coord inv_tile_w_;
  Coord inv_tile_h_;
};

}  // namespace tlp

#endif  // TLP_GRID_GRID_LAYOUT_H_
