#include "index/matmul_search.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "index/topk.h"
#include "la/kernels.h"

namespace dial::index {

namespace {
/// Queries per GEMM tile.
constexpr size_t kQueryTile = 64;
/// Stored rows per GEMM block.
constexpr size_t kDbBlock = 256;
}  // namespace

SearchBatch MatmulSearchIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  const size_t n = data_.rows();
  if (n == 0) return results;

  // Query tiles are independent units of work (each owns its GEMM scratch
  // and heaps), so the tile loop fans out over the pool.
  const size_t num_tiles = (queries.rows() + kQueryTile - 1) / kQueryTile;
  util::ParallelFor(pool_, num_tiles, [&](size_t t_begin, size_t t_end) {
  for (size_t tile_i = t_begin; tile_i < t_end; ++tile_i) {
    const size_t q0 = tile_i * kQueryTile;
    const size_t tile_rows = std::min(kQueryTile, queries.rows() - q0);
    const float* tile = queries.row(q0);
    std::vector<float> query_sq(tile_rows);
    std::vector<float> query_norm(tile_rows);
    la::kernels::NormsSquared(tile, tile_rows, dim_, query_sq.data());
    for (size_t i = 0; i < tile_rows; ++i) {
      query_norm[i] = std::sqrt(query_sq[i]);
    }
    std::vector<TopK> heaps;
    heaps.reserve(tile_rows);
    for (size_t i = 0; i < tile_rows; ++i) heaps.emplace_back(k);

    std::vector<float> scores(tile_rows * kDbBlock);
    std::vector<float> dist(kDbBlock);
    for (size_t base_id = 0; base_id < n; base_id += kDbBlock) {
      // scores(i, j) = tile_i . x_j, one GEMM per (tile, block); the
      // scores rows then turn into metric distances branch-free per row.
      const size_t rows = std::min(kDbBlock, n - base_id);
      std::fill(scores.begin(), scores.begin() + tile_rows * rows, 0.0f);
      la::kernels::GemmNT(tile_rows, rows, dim_, tile, data_.row(base_id),
                          scores.data());
      for (size_t i = 0; i < tile_rows; ++i) {
        const float* row = scores.data() + i * rows;
        switch (metric_) {
          case Metric::kL2:
            // |q - x|^2 = |q|^2 + |x|^2 - 2 q.x over the GEMM dots; the
            // kernel clamps tiny negatives from floating-point cancellation.
            la::kernels::SquaredDistanceFromDots(
                query_sq[i], row, norms_sq_.data() + base_id, rows, dist.data());
            break;
          case Metric::kInnerProduct:
            for (size_t j = 0; j < rows; ++j) dist[j] = -row[j];
            break;
          case Metric::kCosine:
            for (size_t j = 0; j < rows; ++j) {
              const float denom =
                  query_norm[i] * std::sqrt(norms_sq_[base_id + j]);
              dist[j] = denom > 0.0f ? -row[j] / denom : 0.0f;
            }
            break;
        }
        for (size_t j = 0; j < rows; ++j) {
          if (RowLive(base_id + j)) heaps[i].Push(IdOf(base_id + j), dist[j]);
        }
      }
    }
    for (size_t i = 0; i < tile_rows; ++i) {
      results[q0 + i] = heaps[i].Take();
    }
  }
  });
  return results;
}

}  // namespace dial::index
