#include "index/sq_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/row_source.h"
#include "index/topk.h"

namespace dial::index {

SqIndex::SqIndex(size_t dim) : VectorIndex(dim) {}

void SqIndex::EncodeRow(const float* x, uint8_t* code) const {
  // inv_scale_ is 0 for degenerate (constant) dimensions, which maps every
  // value to code 0 — same behaviour the old `scale <= 0` branch had, minus
  // the branch and the divide.
  for (size_t d = 0; d < dim_; ++d) {
    const float t = (x[d] - min_[d]) * inv_scale_[d];
    code[d] = static_cast<uint8_t>(std::clamp(t, 0.0f, 255.0f));
  }
}

void SqIndex::EncodeRows(const la::Matrix& vectors, size_t begin, size_t end,
                         uint8_t* out) const {
  const float* __restrict mn = min_.data();
  const float* __restrict inv = inv_scale_.data();
  const size_t dim = dim_;
  for (size_t i = begin; i < end; ++i) {
    const float* __restrict x = vectors.row(i);
    uint8_t* __restrict code = out + i * dim;
    for (size_t d = 0; d < dim; ++d) {
      float t = (x[d] - mn[d]) * inv[d];
      t = t < 0.0f ? 0.0f : t;
      t = t > 255.0f ? 255.0f : t;
      code[d] = static_cast<uint8_t>(t);
    }
  }
}

void SqIndex::TrainRanges(const la::Matrix& vectors) {
  min_.assign(dim_, std::numeric_limits<float>::infinity());
  std::vector<float> max(dim_, -std::numeric_limits<float>::infinity());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    const float* row = vectors.row(i);
    for (size_t d = 0; d < dim_; ++d) {
      min_[d] = std::min(min_[d], row[d]);
      max[d] = std::max(max[d], row[d]);
    }
  }
  scale_.resize(dim_);
  inv_scale_.resize(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    scale_[d] = (max[d] - min_[d]) / 256.0f;
    inv_scale_[d] = scale_[d] > 0.0f ? 1.0f / scale_[d] : 0.0f;
  }
}

void SqIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  if (!trained()) {
    TrainRanges(vectors);
    trained_err_ = QuantizationError(vectors, kDriftSampleRows);
  } else if (trained_err_ > 0.0) {
    // Encode-on-insert behind the drift watch: out-of-range values clamp, so
    // the clamp excess of this batch is exactly what the frozen ranges cost.
    const double excess = ClampExcess(vectors, kDriftSampleRows);
    insert_drift_ =
        std::max(insert_drift_, (trained_err_ + excess) / trained_err_);
  }
  const size_t base = codes_.size();
  codes_.resize(base + vectors.rows() * dim_);
  // Rows quantize independently into disjoint code slots.
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    EncodeRows(vectors, begin, end, codes_.data() + base);
  });
  count_ += vectors.rows();
}

void SqIndex::AddStreamed(const RowSource& source,
                          const StreamOptions& options) {
  DIAL_CHECK_EQ(source.cols(), dim_);
  if (source.rows() == 0) return;
  if (!trained()) {
    const la::Matrix sample = SampleRows(
        source, std::max<size_t>(1, options.train_sample), options.sample_seed);
    TrainRanges(sample);
    trained_err_ = QuantizationError(sample, kDriftSampleRows);
  }
  codes_.reserve(codes_.size() + source.rows() * dim_);
  AddStreamedChunks(source, options.chunk_rows);
}

SearchBatch SqIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  if (count_ == 0) return results;
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    // Per-query lookup table: distance contribution of each (dim, code)
    // pair, the scalar-quantization version of ADC. Per-chunk scratch.
    std::vector<float> table(dim_ * 256);
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.row(q);
      for (size_t d = 0; d < dim_; ++d) {
        float* row = table.data() + d * 256;
        for (size_t c = 0; c < 256; ++c) {
          const float v = DequantizedValue(d, static_cast<uint8_t>(c));
          row[c] = (query[d] - v) * (query[d] - v);
        }
      }
      TopK topk(k);
      for (size_t row = 0; row < count_; ++row) {
        if (!RowLive(row)) continue;
        const uint8_t* code = codes_.data() + row * dim_;
        float dist = 0.0f;
        for (size_t d = 0; d < dim_; ++d) dist += table[d * 256 + code[d]];
        topk.Push(IdOf(row), dist);
      }
      results[q] = topk.Take();
    }
  });
  return results;
}

RefreshStats SqIndex::Refresh(const la::Matrix& vectors,
                              const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  insert_drift_ = 0.0;
  if (!options.warm_start || !trained()) {
    min_.clear();
    scale_.clear();
    inv_scale_.clear();
    trained_err_ = 0.0;
    codes_.clear();
    count_ = 0;
    Add(vectors);
    return {};
  }
  RefreshStats stats;
  stats.warm = true;
  if (options.drift_threshold > 0.0 && trained_err_ > 0.0) {
    // Drift = how much error the stale ranges ADD (clamp excess) relative to
    // the trained baseline; 1.0 means "as good as training day".
    const double excess = ClampExcess(vectors, kDriftSampleRows);
    stats.drift = (trained_err_ + excess) / trained_err_;
    if (stats.drift > options.drift_threshold) {
      stats.warm = false;
      stats.retrained = true;
      TrainRanges(vectors);
      trained_err_ = QuantizationError(vectors, kDriftSampleRows);
    }
  }
  codes_.resize(vectors.rows() * dim_);
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    EncodeRows(vectors, begin, end, codes_.data());
  });
  count_ = vectors.rows();
  return stats;
}

double SqIndex::ClampExcess(const la::Matrix& data, size_t max_rows) const {
  DIAL_CHECK(trained());
  DIAL_CHECK_EQ(data.cols(), dim_);
  const size_t n = std::min(data.rows(), max_rows);
  if (n == 0) return 0.0;
  const float* __restrict mn = min_.data();
  const float* __restrict sc = scale_.data();
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const float* __restrict x = data.row(i);
    float row_excess = 0.0f;
    for (size_t d = 0; d < dim_; ++d) {
      const float below = mn[d] - x[d];
      const float above = x[d] - (mn[d] + sc[d] * 256.0f);
      float e = below > above ? below : above;
      e = e > 0.0f ? e : 0.0f;
      row_excess += e * e;
    }
    total += row_excess;
  }
  return total / static_cast<double>(n);
}

void SqIndex::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU32(trained() ? 1 : 0);
  if (!trained()) return;
  writer.WriteFloatVector(min_);
  writer.WriteFloatVector(scale_);
  writer.WriteF64(trained_err_);
}

util::Status SqIndex::LoadWarmState(util::BinaryReader& reader) {
  const bool has_ranges = reader.ReadU32() != 0;
  if (!reader.status().ok()) return reader.status();
  if (!has_ranges) return util::Status::OK();
  min_ = reader.ReadFloatVector();
  scale_ = reader.ReadFloatVector();
  trained_err_ = reader.ReadF64();
  if (!reader.status().ok()) return reader.status();
  if (min_.size() != dim_ || scale_.size() != dim_) {
    return util::Status::Corruption("sq warm state dimension mismatch");
  }
  inv_scale_.resize(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    inv_scale_[d] = scale_[d] > 0.0f ? 1.0f / scale_[d] : 0.0f;
  }
  codes_.clear();
  count_ = 0;
  ResetLifecycle();
  insert_drift_ = 0.0;
  return util::Status::OK();
}

void SqIndex::CompactRows(const std::vector<int>& keep) {
  std::vector<uint8_t> packed(keep.size() * dim_);
  for (size_t i = 0; i < keep.size(); ++i) {
    const uint8_t* src = codes_.data() + static_cast<size_t>(keep[i]) * dim_;
    std::copy(src, src + dim_, packed.data() + i * dim_);
  }
  codes_ = std::move(packed);
  count_ = keep.size();
}

double SqIndex::QuantizationError(const la::Matrix& data, size_t max_rows) const {
  DIAL_CHECK(trained());
  DIAL_CHECK_EQ(data.cols(), dim_);
  const size_t n = std::min(data.rows(), max_rows);
  if (n == 0) return 0.0;
  std::vector<uint8_t> code(dim_);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EncodeRow(data.row(i), code.data());
    for (size_t d = 0; d < dim_; ++d) {
      const double diff = data(i, d) - DequantizedValue(d, code[d]);
      total += diff * diff;
    }
  }
  return total / static_cast<double>(n);
}

}  // namespace dial::index
