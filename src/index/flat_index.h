#ifndef DIAL_INDEX_FLAT_INDEX_H_
#define DIAL_INDEX_FLAT_INDEX_H_

#include "index/vector_index.h"
#include "util/thread_pool.h"

/// \file
/// Exact brute-force kNN (the analogue of faiss::IndexFlatL2). This is
/// DIAL's default blocker index: at the scales in this repo exact search is
/// both faster and simpler than quantization.

namespace dial::index {

class FlatIndex : public VectorIndex {
 public:
  /// `pool` (optional, unowned) parallelizes queries across threads — the
  /// constructor form of VectorIndex::SetThreadPool.
  FlatIndex(size_t dim, Metric metric, util::ThreadPool* pool = nullptr)
      : VectorIndex(dim, metric) {
    SetThreadPool(pool);
  }

  void Add(const la::Matrix& vectors) override;
  size_t size() const override { return data_.rows(); }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

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

  la::Matrix data_;
  /// Per-row |x|² maintained by Add — lets cosine Search reuse the norms
  /// instead of recomputing them per query (MatmulSearchIndex's L2 and
  /// cosine scans read them too).
  std::vector<float> norms_sq_;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_FLAT_INDEX_H_
