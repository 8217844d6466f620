#ifndef DIAL_INDEX_FLAT_INDEX_H_
#define DIAL_INDEX_FLAT_INDEX_H_

#include "index/vector_index.h"
#include "util/thread_pool.h"

/// \file
/// Exact brute-force kNN (the analogue of faiss::IndexFlatL2). This is
/// DIAL's default blocker index: at the scales in this repo exact search is
/// both faster and simpler than quantization.
///
/// Search scans in tiles: a tile of 64 queries against a block of 256
/// stored rows at a time, so a block stays in cache while every query of
/// the tile reads it. ScoreBlock fills the tile's distances for one block,
/// and the top-k selection skips each row that its query's full heap would
/// reject before looking up the row's tombstone. Query tiles fan out over
/// the attached pool; a search that fits in one tile runs on the caller.
/// Neither the tiling nor the pool changes a result bit.

namespace dial::index {

class FlatIndex : public VectorIndex {
 public:
  /// `pool` (optional, unowned) parallelizes queries across threads — the
  /// constructor form of VectorIndex::SetThreadPool.
  explicit FlatIndex(size_t dim, util::ThreadPool* pool = nullptr)
      : VectorIndex(dim) {
    SetThreadPool(pool);
  }

  void Add(const la::Matrix& vectors) override;
  size_t size() const override { return data_.rows(); }
  SearchBatch Search(const la::Matrix& queries, size_t k) const final;

  /// Lifecycle: no trained structure — refresh swaps the stored matrix and
  /// recomputes the cached norms. Identical to a fresh build either way.
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;

  /// Direct row access (used by tests and the IBC candidate merge).
  const la::Matrix& data() const { return data_; }

 protected:
  /// Gathers the kept rows (and their cached norms) into a packed matrix.
  void CompactRows(const std::vector<int>& keep) override;

  /// Search's distance hook: sets scores[i * rows + j] to the distance from
  /// query i of `tile` (tile_rows x dim, row-major) to stored row row0 + j,
  /// for every j < rows. FlatIndex runs the exact batch kernels per query
  /// (DistanceBatch), bit-identical to Distance per row.
  virtual void ScoreBlock(const float* tile, size_t tile_rows, size_t row0,
                          size_t rows, float* scores) const;

  la::Matrix data_;
  /// Per-row |x|² maintained by Add, for MatmulSearchIndex's GEMM-based
  /// distance expansion.
  std::vector<float> norms_sq_;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_FLAT_INDEX_H_
