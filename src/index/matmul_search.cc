#include "index/matmul_search.h"

#include <vector>

#include "la/kernels.h"

namespace dial::index {

void MatmulSearchIndex::ScoreBlock(const float* tile, size_t tile_rows,
                                   size_t row0, size_t rows,
                                   float* scores) const {
  // dots(i, j) = tile_i . x_j from one GEMM; each row of dots then turns
  // into |q - x|^2 = |q|^2 + |x|^2 - 2 q.x (the kernel clamps tiny
  // negatives from floating-point cancellation).
  std::vector<float> dots(tile_rows * rows);
  la::kernels::GemmNT(tile_rows, rows, dim_, tile, data_.row(row0),
                      dots.data());
  for (size_t i = 0; i < tile_rows; ++i) {
    const float* query = tile + i * dim_;
    const float query_sq = la::kernels::Dot(query, query, dim_);
    la::kernels::SquaredDistanceFromDots(query_sq, dots.data() + i * rows,
                                         norms_sq_.data() + row0, rows,
                                         scores + i * rows);
  }
}

}  // namespace dial::index
