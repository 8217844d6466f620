#ifndef DIAL_INDEX_SQ_INDEX_H_
#define DIAL_INDEX_SQ_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/vector_index.h"

/// \file
/// Scalar quantization (the faiss::IndexScalarQuantizer QT_8bit analogue):
/// each dimension is linearly quantized to one byte against per-dimension
/// [min, max] ranges learned from the first batch. 4x memory reduction with
/// far milder recall loss than product quantization — the usual middle rung
/// between flat and PQ on FAISS's memory/recall ladder.

namespace dial::index {

class SqIndex : public VectorIndex {
 public:
  /// Distances are computed against dequantized values (asymmetric:
  /// full-precision query).
  explicit SqIndex(size_t dim);

  /// First Add() trains the per-dimension ranges; later batches clamp into
  /// the trained ranges.
  void Add(const la::Matrix& vectors) override;
  /// Bounded-memory build: ranges train on a capped sample, encoding streams
  /// chunk by chunk (values outside the sampled ranges clamp, as on any
  /// post-training Add).
  void AddStreamed(const RowSource& source,
                   const StreamOptions& options) override;
  using VectorIndex::AddStreamed;
  size_t size() const override { return count_; }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Lifecycle: warm refresh keeps the trained [min, max] ranges and only
  /// re-encodes (out-of-range values clamp, which is exactly what the drift
  /// check watches: past options.drift_threshold the ranges retrain).
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  /// Warm state: per-dimension ranges + the training-time error baseline.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  bool trained() const { return !scale_.empty(); }
  /// Mean squared dequantization error over `data` (diagnostics/tests).
  double QuantizationError(const la::Matrix& data) const {
    return QuantizationError(data, data.rows());
  }
  /// Same, over the first min(max_rows, rows) rows (the drift-check sample).
  double QuantizationError(const la::Matrix& data, size_t max_rows) const;
  /// Mean squared out-of-range mass per sampled row: the error the trained
  /// [min, max] ranges ADD on `data` beyond training-time quantization
  /// (values outside the range clamp, so their excess distance is exactly
  /// what a stale range costs). Branch-free over the head sample — the
  /// Refresh drift signal, far cheaper than a full QuantizationError pass.
  double ClampExcess(const la::Matrix& data, size_t max_rows) const;
  /// Bytes used by stored codes.
  size_t code_bytes() const { return codes_.size(); }
  /// Sampled dequantization error recorded when the ranges were trained.
  double trained_error() const { return trained_err_; }
  /// Worst post-training insert batch's clamp-excess ratio vs the training
  /// baseline (see VectorIndex::insert_drift) — frozen ranges clamp
  /// out-of-range inserts, so this is the signal a streaming driver watches.
  double insert_drift() const override { return insert_drift_; }

 protected:
  /// Drops the dead code rows (codes are the only storage).
  void CompactRows(const std::vector<int>& keep) override;

 private:
  void TrainRanges(const la::Matrix& vectors);
  void EncodeRow(const float* x, uint8_t* code) const;
  /// Encodes rows [begin, end) of `vectors` into `out` (row i at
  /// out + i*dim). Restrict-qualified flat loops so the sub/mul/clamp/
  /// narrow chain vectorizes — the shared hot path of Add and Refresh.
  void EncodeRows(const la::Matrix& vectors, size_t begin, size_t end,
                  uint8_t* out) const;
  float DequantizedValue(size_t d, uint8_t code) const {
    return min_[d] + scale_[d] * (static_cast<float>(code) + 0.5f);
  }

  std::vector<float> min_;        // per-dimension range start
  std::vector<float> scale_;      // per-dimension step ((max-min)/256)
  std::vector<float> inv_scale_;  // 1/scale_ (0 for degenerate dims) — turns
                                  // the encode divide into a multiply
  std::vector<uint8_t> codes_;
  size_t count_ = 0;
  double trained_err_ = 0.0;
  double insert_drift_ = 0.0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_SQ_INDEX_H_
