#ifndef DIAL_INDEX_PQ_H_
#define DIAL_INDEX_PQ_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// Product quantization (Jégou et al.) — the compression scheme behind
/// FAISS's large-scale indexes. The paper (Sec. 5.4) singles out FAISS's
/// "product quantization for fast asymmetric distance computations" as the
/// retrieval machinery DIAL builds on, so the substrate is reproduced here:
/// a vector is split into `m` subspaces, each subspace is vector-quantized
/// with its own k-means codebook, and a database vector is stored as `m`
/// one-byte codes. Distances between a (full-precision) query and the codes
/// are evaluated with per-query lookup tables — the asymmetric distance
/// computation (ADC) — without ever reconstructing the database vectors.

namespace dial::index {

class RowSource;

class ProductQuantizer {
 public:
  struct Options {
    /// Number of subspaces `m`; must divide the vector dimension.
    size_t num_subspaces = 4;
    /// Bits per subspace code; codebook size ksub = 2^bits. Capped at 8 so a
    /// code is one byte (the FAISS default).
    size_t bits_per_code = 6;
    /// Lloyd iterations per subspace codebook.
    size_t train_iterations = 15;
    uint64_t seed = 41;
  };

  ProductQuantizer(size_t dim, Options options);

  /// Learns the per-subspace codebooks. If fewer training rows than 2^bits
  /// are supplied, the codebook size is clipped to the number of rows.
  void Train(const la::Matrix& data);
  /// Streamed-build variant: trains on a bounded sample of `source` (see
  /// SampleRows). When the source fits `max_sample_rows` the sample is every
  /// row in order, so this is bit-identical to Train on the full matrix.
  void TrainSampled(const RowSource& source, size_t max_sample_rows,
                    uint64_t sample_seed);
  bool trained() const { return ksub_ > 0; }
  /// Drops the trained codebooks (back to the untrained state) so the next
  /// Train starts from scratch — the index Refresh drift-fallback path.
  void Reset();

  /// Serializes the trained codebooks (the warm-startable structure; see
  /// VectorIndex::SaveWarmState). LoadState restores them into a quantizer
  /// constructed with the same (dim, Options) and rebuilds the derived
  /// symmetric-distance tables.
  void SaveState(util::BinaryWriter& writer) const;
  util::Status LoadState(util::BinaryReader& reader);

  /// Attaches an unowned worker pool used by Train (k-means assignment) and
  /// EncodeBatch. Codebooks and codes are bit-identical with or without a
  /// pool: subspaces train sequentially (they share the seeding RNG stream)
  /// and only row-independent loops fan out.
  void SetThreadPool(util::ThreadPool* pool) { pool_ = pool; }

  size_t dim() const { return dim_; }
  size_t num_subspaces() const { return options_.num_subspaces; }
  size_t subspace_dim() const { return dsub_; }
  /// Effective codebook size per subspace (after any training-set clipping).
  size_t codebook_size() const { return ksub_; }
  /// Bytes per encoded vector (= num_subspaces).
  size_t code_size() const { return options_.num_subspaces; }

  /// Quantizes one vector of `dim()` floats into `code_size()` bytes.
  void Encode(const float* x, uint8_t* code) const;
  /// Quantizes every row of `data`; returns n * code_size() bytes.
  std::vector<uint8_t> EncodeBatch(const la::Matrix& data) const;
  /// Reconstructs one vector from its code.
  void Decode(const uint8_t* code, float* out) const;
  /// Reconstructs `n` codes into an (n, dim) matrix.
  la::Matrix DecodeBatch(const std::vector<uint8_t>& codes, size_t n) const;

  /// Fills `table` (num_subspaces * codebook_size, row-major) with the
  /// per-subspace squared L2 distances (Metric::kL2) or negated dot products
  /// (inner-product mode) between `query` and every centroid.
  void ComputeDistanceTable(const float* query, bool inner_product,
                            std::vector<float>& table) const;

  /// ADC lookup: distance between the query behind `table` and one code.
  /// Block-unrolled over subspaces (4 independent partial sums, combined as
  /// (s0+s1)+(s2+s3) with a scalar tail — the la/kernels accumulation
  /// contract), so the compiler keeps several table loads in flight.
  float AdcDistance(const std::vector<float>& table, const uint8_t* code) const;

  /// Batched ADC scan: out[i] = AdcDistance(table, codes + i*code_size())
  /// for i in [0, n). The same per-code routine backs both entry points, so
  /// a batched scan is bit-identical to calling AdcDistance per code — the
  /// pq_index / ivfpq_index scan-loop workhorse.
  void AdcDistanceBatch(const std::vector<float>& table, const uint8_t* codes,
                        size_t n, float* out) const;

  /// Symmetric (code-to-code) distance via precomputed centroid-to-centroid
  /// tables; squared-L2 only.
  float SymmetricDistance(const uint8_t* a, const uint8_t* b) const;

  /// Mean squared reconstruction error over the rows of `data` — decreases
  /// with more subspaces or more bits (property-tested).
  double QuantizationError(const la::Matrix& data) const {
    return QuantizationError(data, data.rows());
  }
  /// Same, over only the first min(max_rows, rows) rows — the bounded-cost
  /// sample the index Refresh drift check uses.
  double QuantizationError(const la::Matrix& data, size_t max_rows) const;

  /// Codebook of one subspace, shape (codebook_size, subspace_dim).
  const la::Matrix& codebook(size_t subspace) const;

 private:
  size_t NearestCentroid(size_t subspace, const float* sub) const;
  /// Fills sdc_tables_ from codebooks_ (after Train and LoadState).
  void BuildSdcTables();

  size_t dim_;
  size_t dsub_;
  Options options_;
  size_t ksub_ = 0;  // 0 until trained
  util::ThreadPool* pool_ = nullptr;    // unowned; null = inline execution
  std::vector<la::Matrix> codebooks_;   // per subspace: (ksub, dsub)
  std::vector<la::Matrix> sdc_tables_;  // per subspace: (ksub, ksub) sq dists
};

}  // namespace dial::index

#endif  // DIAL_INDEX_PQ_H_
