#include "index/matmul_search.h"

#include <cmath>
#include <vector>

#include "la/kernels.h"

namespace dial::index {

void MatmulSearchIndex::ScoreBlock(const float* tile, size_t tile_rows,
                                   size_t row0, size_t rows,
                                   float* scores) const {
  // dots(i, j) = tile_i . x_j from one GEMM; each row of dots then turns
  // into metric distances branch-free.
  std::vector<float> dots(tile_rows * rows);
  la::kernels::GemmNT(tile_rows, rows, dim_, tile, data_.row(row0),
                      dots.data());
  const float* norms_sq = norms_sq_.data() + row0;
  for (size_t i = 0; i < tile_rows; ++i) {
    const float* query = tile + i * dim_;
    const float* dot = dots.data() + i * rows;
    float* dist = scores + i * rows;
    const float query_sq = la::kernels::Dot(query, query, dim_);
    switch (metric_) {
      case Metric::kL2:
        // |q - x|^2 = |q|^2 + |x|^2 - 2 q.x over the GEMM dots; the kernel
        // clamps tiny negatives from floating-point cancellation.
        la::kernels::SquaredDistanceFromDots(query_sq, dot, norms_sq, rows,
                                             dist);
        break;
      case Metric::kInnerProduct:
        for (size_t j = 0; j < rows; ++j) dist[j] = -dot[j];
        break;
      case Metric::kCosine: {
        const float query_norm = std::sqrt(query_sq);
        for (size_t j = 0; j < rows; ++j) {
          const float denom = query_norm * std::sqrt(norms_sq[j]);
          dist[j] = denom > 0.0f ? -dot[j] / denom : 0.0f;
        }
        break;
      }
    }
  }
}

}  // namespace dial::index
