#ifndef DIAL_INDEX_PQ_INDEX_H_
#define DIAL_INDEX_PQ_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/pq.h"
#include "index/vector_index.h"

/// \file
/// Compressed-domain exhaustive kNN (the faiss::IndexPQ analogue): database
/// vectors are stored only as product-quantizer codes; a query is answered by
/// building one ADC lookup table and scanning every code. Memory per vector
/// drops from dim*4 bytes to num_subspaces bytes at the cost of quantization
/// error — the recall impact is measured in bench_index_backends.

namespace dial::index {

class PqIndex : public VectorIndex {
 public:
  PqIndex(size_t dim, ProductQuantizer::Options options);

  /// The first Add() trains the quantizer on the incoming batch; later
  /// batches are encoded with the existing codebooks.
  void Add(const la::Matrix& vectors) override;
  /// Bounded-memory build: trains the codebooks on a capped sample, then
  /// encodes chunk by chunk — peak full-width residency is one sample plus
  /// one chunk, never the whole source.
  void AddStreamed(const RowSource& source,
                   const StreamOptions& options) override;
  using VectorIndex::AddStreamed;
  size_t size() const override { return count_; }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Lifecycle: warm refresh keeps the trained codebooks and only re-encodes
  /// the new vectors. The drift check compares the (sampled) quantization
  /// error on the new vectors against the error recorded when the codebooks
  /// were trained; past options.drift_threshold it retrains from scratch.
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  /// Warm state: codebooks + the training-time error baseline.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  const ProductQuantizer& quantizer() const { return pq_; }
  /// Bytes used by the stored codes (diagnostics for the compression bench).
  size_t code_bytes() const { return codes_.size(); }
  /// Sampled quantization error recorded when the codebooks were trained
  /// (the drift-check denominator; 0 until trained).
  double trained_error() const { return trained_err_; }
  /// Worst post-training insert batch's sampled error ratio vs the training
  /// baseline (see VectorIndex::insert_drift) — codes-only storage cannot
  /// retrain in place, so this is the signal a streaming driver watches.
  double insert_drift() const override { return insert_drift_; }

 protected:
  /// Drops the dead code rows (codes are the only storage).
  void CompactRows(const std::vector<int>& keep) override;

 private:
  ProductQuantizer pq_;
  std::vector<uint8_t> codes_;
  size_t count_ = 0;
  double trained_err_ = 0.0;
  double insert_drift_ = 0.0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_PQ_INDEX_H_
