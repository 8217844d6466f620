#ifndef DIAL_INDEX_IVFPQ_INDEX_H_
#define DIAL_INDEX_IVFPQ_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/pq.h"
#include "index/vector_index.h"
#include "util/rng.h"

/// \file
/// IVF + residual product quantization (the faiss::IndexIVFPQ analogue,
/// and the configuration FAISS actually uses at billion scale): a k-means
/// coarse quantizer routes each vector to a cell, and the *residual*
/// x - centroid(cell) is product-quantized. Queries probe the `nprobe`
/// nearest cells, building one ADC table per probed cell on the query's
/// residual.

namespace dial::index {

class IvfPqIndex : public VectorIndex {
 public:
  struct Options {
    size_t nlist = 16;
    size_t nprobe = 4;
    size_t train_iterations = 10;
    ProductQuantizer::Options pq;
    uint64_t seed = 29;
  };

  IvfPqIndex(size_t dim, Options options);

  /// First Add() trains the coarse quantizer and the residual PQ on the
  /// incoming batch; later batches reuse the trained structures, with the
  /// same imbalance escape hatch as IvfIndex (ListsImbalanced): the coarse
  /// centroids re-converge and every row re-encodes. The index stores
  /// codes, not raw vectors, so the re-balance runs over *reconstructed*
  /// vectors (centroid + decoded residual) — approximate but deterministic.
  void Add(const la::Matrix& vectors) override;
  /// Bounded-memory build: coarse quantizer + residual PQ train on one
  /// capped sample, then rows route/encode chunk by chunk. Residency is
  /// codes + ids only — the backend of choice for the 10^6–10^7 axis.
  void AddStreamed(const RowSource& source,
                   const StreamOptions& options) override;
  using VectorIndex::AddStreamed;
  size_t size() const override { return count_; }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Lifecycle: warm refresh re-converges the coarse centroids with
  /// `warm_iterations` Lloyd steps, keeps the residual-PQ codebooks, and
  /// re-encodes. The drift check watches the residual quantization error
  /// (residuals against the re-converged centroids) and falls back to a full
  /// retrain of both structures past options.drift_threshold.
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  /// Warm state: centroids + PQ codebooks + the training error baseline.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  const Options& options() const { return options_; }
  const ProductQuantizer& quantizer() const { return pq_; }
  /// Sampled residual quantization error at PQ training time.
  double trained_error() const { return trained_err_; }
  /// Worst post-training insert batch's sampled residual-error ratio vs the
  /// training baseline (see VectorIndex::insert_drift).
  double insert_drift() const override { return insert_drift_; }
  /// Imbalance-triggered rebalances performed by post-training Adds.
  size_t rebalances() const { return rebalances_; }

 protected:
  /// Filters the per-cell id/code parallel arrays (list order preserved).
  void CompactRows(const std::vector<int>& keep) override;

 private:
  /// Cell whose centroid is nearest to `x`; `dist` is scratch for one
  /// distance per centroid.
  size_t NearestCell(const float* x, float* dist) const;
  /// Reconstructs every stored vector, re-converges the coarse centroids
  /// with warm Lloyd steps, and re-encodes — see Add.
  void Rebalance();
  void EncodeInto(const la::Matrix& vectors, size_t base_id);
  /// Residual-encodes rows whose cells are already known (the Refresh path
  /// reuses the warm Lloyd assignment; bit-identical to recomputing).
  void EncodeWithCells(const la::Matrix& vectors, size_t base_id,
                       const std::vector<int>& cells);
  void ResetAll();

  Options options_;
  ProductQuantizer pq_;
  la::Matrix centroids_;  // (nlist, dim)
  /// Per cell: vector ids and their residual codes (parallel arrays).
  std::vector<std::vector<int>> list_ids_;
  std::vector<std::vector<uint8_t>> list_codes_;
  size_t count_ = 0;
  double trained_err_ = 0.0;
  double insert_drift_ = 0.0;
  size_t rebalances_ = 0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_IVFPQ_INDEX_H_
