#ifndef DIAL_INDEX_LSH_INDEX_H_
#define DIAL_INDEX_LSH_INDEX_H_

#include <unordered_map>
#include <vector>

#include "index/vector_index.h"
#include "util/rng.h"

/// \file
/// Random-hyperplane locality-sensitive hashing — the retrieval scheme used
/// by DeepER/AutoBlock, implemented as a comparison point against FAISS-style
/// exact k-selection (paper Sec. 5.4). `num_tables` independent hash tables,
/// each hashing with `num_bits` hyperplanes; candidates are the union of the
/// query's buckets, re-ranked exactly.

namespace dial::index {

class LshIndex : public VectorIndex {
 public:
  struct Options {
    size_t num_tables = 8;
    size_t num_bits = 12;
    uint64_t seed = 23;
    /// When a query's exact buckets hold fewer than k candidates, also probe
    /// every bucket whose code differs from the query code by one bit.
    bool multiprobe = true;
    /// Fall back to an exact scan when probing yields no candidates at all,
    /// so a non-empty index never returns an empty result list.
    bool exact_fallback = true;
  };

  LshIndex(size_t dim, Options options);

  void Add(const la::Matrix& vectors) override;
  size_t size() const override { return data_.rows(); }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Lifecycle: warm refresh keeps the hyperplanes (seed-derived and
  /// data-independent) and first probes a head sample of the new vectors for
  /// flipped sign bits. Under round-to-round embedding drift almost no bits
  /// flip, so while at most 2% of sampled bits flip the existing tables and
  /// codes are kept as-is and only the stored vectors swap (queries re-rank
  /// against the fresh vectors, so staleness touches candidate generation
  /// only — RefreshStats::drift reports the flip fraction). Past the
  /// threshold everything re-hashes via one blocked GEMM against the plane
  /// matrix. Warm state: the per-vector codes (what the kept tables encode).
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  /// Mean bucket occupancy across tables (diagnostics).
  double MeanBucketSize() const;

 protected:
  /// Gathers the kept rows and codes, then rebuilds the hash tables by
  /// re-inserting the kept codes in the new id order (same id-order bucket
  /// contents a from-scratch build of the survivors has).
  void CompactRows(const std::vector<int>& keep) override;

 private:
  /// All num_tables codes of one vector, via one batched dot against every
  /// hyperplane (bit-identical to per-bit la::Dot; see la/kernels.h). The
  /// per-query hashing path in Search. `dot_scratch` must hold
  /// planes_.rows() floats.
  void HashAll(const float* x, float* dot_scratch, uint64_t* codes) const;
  /// Codes for every row of `vectors` at once: one (n, num_tables*num_bits)
  /// GEMM against the plane matrix, sign-packed pool-parallel. The bulk
  /// hashing path behind Add and Refresh.
  std::vector<uint64_t> BulkCodes(const la::Matrix& vectors) const;
  /// Appends ids base+i to the buckets named by `codes`, serially in row
  /// order — the ONLY table writer, so bucket ordering is always id order
  /// (which is what makes a checkpoint-restored index bit-identical to the
  /// live one).
  void InsertCodes(const std::vector<uint64_t>& codes, size_t rows, size_t base);
  /// Fraction of sampled (head) code bits that differ between codes_ and a
  /// fresh hash of `vectors` — the LSH drift signal.
  double SampledBitFlipFraction(const la::Matrix& vectors) const;

  Options options_;
  la::Matrix data_;
  /// (num_tables * num_bits, dim) hyperplane normals.
  la::Matrix planes_;
  std::vector<std::unordered_map<uint64_t, std::vector<int>>> tables_;
  /// Current code of every stored vector, (rows x num_tables) — what lets
  /// Refresh diff old vs new codes and move only the changed entries.
  std::vector<uint64_t> codes_;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_LSH_INDEX_H_
