#ifndef DIAL_INDEX_IVF_INDEX_H_
#define DIAL_INDEX_IVF_INDEX_H_

#include <vector>

#include "index/vector_index.h"
#include "util/rng.h"

/// \file
/// Inverted-file index (the faiss::IndexIVFFlat analogue): a k-means coarse
/// quantizer partitions vectors into `nlist` cells; queries scan only the
/// `nprobe` nearest cells. Approximate — recall/latency trade-off is
/// exercised in bench_index_backends.

namespace dial::index {

class IvfIndex : public VectorIndex {
 public:
  struct Options {
    size_t nlist = 16;
    size_t nprobe = 4;
    size_t train_iterations = 10;
    uint64_t seed = 17;
  };

  IvfIndex(size_t dim, Options options)
      : VectorIndex(dim), options_(options) {}

  /// First Add() trains the coarse quantizer on the incoming vectors; later
  /// Adds assign to the existing cells, then re-converge the centroids with
  /// warm Lloyd steps over the stored vectors and rebuild the lists when
  /// the lists grow imbalanced (ListsImbalanced). Deterministic either way.
  void Add(const la::Matrix& vectors) override;
  /// Streamed build: the coarse quantizer trains on a capped sample instead
  /// of the whole source, then rows are routed chunk by chunk. Note IVF-flat
  /// stores raw vectors, so while the k-means *training* cost is bounded,
  /// total memory still grows with the source (use IVFPQ/PQ/SQ for code-only
  /// residency at 10^6+ rows).
  void AddStreamed(const RowSource& source,
                   const StreamOptions& options) override;
  using VectorIndex::AddStreamed;
  size_t size() const override { return data_.rows(); }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Lifecycle: warm refresh keeps the trained centroids and re-converges
  /// them with `warm_iterations` Lloyd steps on the new vectors (no k-means++
  /// re-seeding), then rebuilds the inverted lists from the final assignment.
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  /// Warm state: the coarse-quantizer centroids.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  const Options& options() const { return options_; }
  const la::Matrix& centroids() const { return centroids_; }
  /// Imbalance-triggered rebalances performed by post-training Adds.
  size_t rebalances() const { return rebalances_; }

 protected:
  /// Gathers the kept rows and filters the inverted lists in place (list
  /// order — ascending internal id — is preserved).
  void CompactRows(const std::vector<int>& keep) override;

 private:
  /// Warm-Lloyd re-convergence over the stored vectors + list rebuild; the
  /// imbalance escape hatch for drifting insert streams.
  void Rebalance();

  Options options_;
  la::Matrix data_;
  la::Matrix centroids_;                   // (nlist, dim)
  std::vector<std::vector<int>> lists_;    // cell -> internal row ids
  size_t rebalances_ = 0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_IVF_INDEX_H_
