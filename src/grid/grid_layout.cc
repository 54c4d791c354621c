#include "grid/grid_layout.h"

#include <stdexcept>

namespace tlp {

GridLayout::GridLayout(const Box& domain, std::uint32_t nx, std::uint32_t ny)
    : domain_(domain), nx_(nx), ny_(ny) {
  // Real checks, not asserts: snapshot loaders and user code construct
  // layouts from external input, and NDEBUG must not erase the validation.
  if (nx < 1 || ny < 1) {
    throw std::invalid_argument("GridLayout: nx and ny must be >= 1");
  }
  if (!(domain.width() > 0) || !(domain.height() > 0)) {
    throw std::invalid_argument(
        "GridLayout: domain must have positive extent in both dimensions");
  }
  tile_w_ = domain.width() / nx;
  tile_h_ = domain.height() / ny;
  inv_tile_w_ = nx / domain.width();
  inv_tile_h_ = ny / domain.height();
}

Box GridLayout::TileBox(std::uint32_t i, std::uint32_t j) const {
  const Point o = TileOrigin(i, j);
  return Box{o.x, o.y, o.x + tile_w_, o.y + tile_h_};
}

}  // namespace tlp
