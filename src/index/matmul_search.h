#ifndef DIAL_INDEX_MATMUL_SEARCH_H_
#define DIAL_INDEX_MATMUL_SEARCH_H_

#include "index/flat_index.h"

/// \file
/// Brute-force top-k by blocked matrix multiplication — the "to index or not
/// to index" alternative (Abuzaid et al., ICDE'19) that DITTO uses for its
/// advanced blocking and that the paper contrasts with FAISS k-selection
/// (Sec. 5.4). Storage, cached norms, the lifecycle and the tiled scan loop
/// with its top-k selection are FlatIndex's; only the distance hook
/// differs. Scores for a query tile against a block of stored rows come
/// from one cache-friendly GEMM, then turn into squared L2 distances by the
/// expansion |q|² + |x|² − 2q·x. Exact: the ids match FlatIndex's, but the
/// distances are not bit-identical to its direct scan.

namespace dial::index {

class MatmulSearchIndex final : public FlatIndex {
 public:
  explicit MatmulSearchIndex(size_t dim) : FlatIndex(dim) {}

 protected:
  void ScoreBlock(const float* tile, size_t tile_rows, size_t row0,
                  size_t rows, float* scores) const override;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_MATMUL_SEARCH_H_
