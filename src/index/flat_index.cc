#include "index/flat_index.h"

#include <algorithm>
#include <vector>

#include "index/topk.h"
#include "la/kernels.h"

namespace dial::index {

namespace {
/// Queries per scan tile.
constexpr size_t kQueryTile = 64;
/// Stored rows per scan block.
constexpr size_t kDbBlock = 256;
}  // namespace

float VectorIndex::Distance(const float* a, const float* b) const {
  return la::SquaredDistance(a, b, dim_);
}

void VectorIndex::DistanceBatch(const float* query, const float* rows,
                                size_t count, float* out) const {
  la::kernels::SquaredDistanceBatch(query, rows, count, dim_, out);
}

void FlatIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  const size_t base = data_.rows();
  if (data_.empty()) {
    data_ = vectors;
  } else {
    la::Matrix merged(base + vectors.rows(), dim_);
    std::copy(data_.data(), data_.data() + data_.size(), merged.data());
    std::copy(vectors.data(), vectors.data() + vectors.size(),
              merged.data() + data_.size());
    data_ = std::move(merged);
  }
  norms_sq_.resize(base + vectors.rows());
  la::kernels::NormsSquared(vectors.data(), vectors.rows(), dim_,
                            norms_sq_.data() + base);
}

void FlatIndex::CompactRows(const std::vector<int>& keep) {
  la::Matrix packed(keep.size(), dim_);
  std::vector<float> norms(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    const float* src = data_.row(keep[i]);
    std::copy(src, src + dim_, packed.row(i));
    norms[i] = norms_sq_[keep[i]];
  }
  data_ = std::move(packed);
  norms_sq_ = std::move(norms);
}

RefreshStats FlatIndex::Refresh(const la::Matrix& vectors,
                                const RefreshOptions& options) {
  (void)options;
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  data_ = vectors;
  norms_sq_.resize(vectors.rows());
  la::kernels::NormsSquared(data_.data(), data_.rows(), dim_, norms_sq_.data());
  return {};
}

SearchBatch FlatIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  if (queries.rows() == 0 || data_.rows() == 0 || k == 0) return results;
  const size_t num_tiles = (queries.rows() + kQueryTile - 1) / kQueryTile;
  util::ParallelFor(pool_, num_tiles, [&](size_t t_begin, size_t t_end) {
    const size_t m = queries.rows();
    const size_t n = data_.rows();
    // Scratch is sized by the actual tile: a one-query search over a few
    // rows holds a few floats, not a full tile.
    std::vector<float> scores(std::min(kQueryTile, m) * std::min(kDbBlock, n));
    std::vector<TopK> heaps;
    heaps.reserve(std::min(kQueryTile, m));
    for (size_t t = t_begin; t < t_end; ++t) {
      const size_t q0 = t * kQueryTile;
      const size_t tile_rows = std::min(kQueryTile, m - q0);
      heaps.clear();
      for (size_t i = 0; i < tile_rows; ++i) {
        heaps.emplace_back(k);
        heaps.back().Reserve(n);
      }
      for (size_t row0 = 0; row0 < n; row0 += kDbBlock) {
        const size_t rows = std::min(kDbBlock, n - row0);
        ScoreBlock(queries.row(q0), tile_rows, row0, rows, scores.data());
        for (size_t i = 0; i < tile_rows; ++i) {
          PushRows(heaps[i], scores.data() + i * rows, rows,
                   [row0](size_t j) { return row0 + j; });
        }
      }
      for (size_t i = 0; i < tile_rows; ++i) results[q0 + i] = heaps[i].Take();
    }
  });
  return results;
}

void FlatIndex::ScoreBlock(const float* tile, size_t tile_rows, size_t row0,
                           size_t rows, float* scores) const {
  for (size_t i = 0; i < tile_rows; ++i) {
    DistanceBatch(tile + i * dim_, data_.row(row0), rows, scores + i * rows);
  }
}

}  // namespace dial::index
