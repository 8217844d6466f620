#include "index/pq_index.h"

#include <algorithm>

#include "index/row_source.h"
#include "index/topk.h"

namespace dial::index {

PqIndex::PqIndex(size_t dim, Metric metric, ProductQuantizer::Options options)
    : VectorIndex(dim, metric), pq_(dim, options) {
  DIAL_CHECK(metric == Metric::kL2 || metric == Metric::kInnerProduct)
      << "PqIndex supports L2 and inner product; normalize + IP for cosine";
}

void PqIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  pq_.SetThreadPool(pool_);
  if (!pq_.trained()) {
    pq_.Train(vectors);
    trained_err_ = pq_.QuantizationError(vectors, kDriftSampleRows);
  } else if (trained_err_ > 0.0) {
    // Encode-on-insert behind the drift watch: sample how well the frozen
    // codebooks quantize this batch and remember the worst ratio seen.
    const double err = pq_.QuantizationError(vectors, kDriftSampleRows);
    insert_drift_ = std::max(insert_drift_, err / trained_err_);
  }
  std::vector<uint8_t> batch = pq_.EncodeBatch(vectors);
  codes_.insert(codes_.end(), batch.begin(), batch.end());
  count_ += vectors.rows();
}

void PqIndex::AddStreamed(const RowSource& source,
                          const StreamOptions& options) {
  DIAL_CHECK_EQ(source.cols(), dim_);
  if (source.rows() == 0) return;
  pq_.SetThreadPool(pool_);
  if (!pq_.trained()) {
    const la::Matrix sample = SampleRows(
        source, std::max<size_t>(1, options.train_sample), options.sample_seed);
    pq_.Train(sample);
    trained_err_ = pq_.QuantizationError(sample, kDriftSampleRows);
  }
  codes_.reserve(codes_.size() + source.rows() * pq_.code_size());
  AddStreamedChunks(source, options.chunk_rows);
}

RefreshStats PqIndex::Refresh(const la::Matrix& vectors,
                              const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  insert_drift_ = 0.0;
  if (!options.warm_start || !pq_.trained()) {
    pq_.Reset();
    trained_err_ = 0.0;
    codes_.clear();
    count_ = 0;
    Add(vectors);
    return {};
  }
  RefreshStats stats;
  stats.warm = true;
  // trained_err_ == 0 means the training batch reconstructed perfectly
  // (e.g. fewer rows than codes); any drift ratio would be infinite, so the
  // check is skipped and the codebooks are simply reused.
  if (options.drift_threshold > 0.0 && trained_err_ > 0.0) {
    const double err = pq_.QuantizationError(vectors, kDriftSampleRows);
    stats.drift = err / trained_err_;
    if (stats.drift > options.drift_threshold) {
      stats.warm = false;
      stats.retrained = true;
      pq_.Reset();
      trained_err_ = 0.0;
      codes_.clear();
      count_ = 0;
      Add(vectors);
      return stats;
    }
  }
  pq_.SetThreadPool(pool_);
  codes_ = pq_.EncodeBatch(vectors);
  count_ = vectors.rows();
  return stats;
}

void PqIndex::SaveWarmState(util::BinaryWriter& writer) const {
  pq_.SaveState(writer);
  writer.WriteF64(trained_err_);
}

util::Status PqIndex::LoadWarmState(util::BinaryReader& reader) {
  DIAL_RETURN_IF_ERROR(pq_.LoadState(reader));
  trained_err_ = reader.ReadF64();
  codes_.clear();
  count_ = 0;
  ResetLifecycle();
  insert_drift_ = 0.0;
  return reader.status();
}

void PqIndex::CompactRows(const std::vector<int>& keep) {
  const size_t code_size = pq_.code_size();
  std::vector<uint8_t> packed(keep.size() * code_size);
  for (size_t i = 0; i < keep.size(); ++i) {
    const uint8_t* src = codes_.data() + static_cast<size_t>(keep[i]) * code_size;
    std::copy(src, src + code_size, packed.data() + i * code_size);
  }
  codes_ = std::move(packed);
  count_ = keep.size();
}

SearchBatch PqIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  if (count_ == 0) return results;
  const bool ip = metric_ == Metric::kInnerProduct;
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    // All scratch is hoisted per chunk and reused across queries: the ADC
    // table, the batched distance buffer, and the top-k heap. The only
    // per-query allocation left is the result list itself.
    std::vector<float> table;
    std::vector<float> dist(count_);
    TopK topk(k);
    for (size_t q = begin; q < end; ++q) {
      pq_.ComputeDistanceTable(queries.row(q), ip, table);
      pq_.AdcDistanceBatch(table, codes_.data(), count_, dist.data());
      topk.Reset(k);
      PushRows(topk, dist.data(), count_, [](size_t row) { return row; });
      const std::vector<Neighbor>& sorted = topk.Sorted();
      results[q].assign(sorted.begin(), sorted.end());
    }
  });
  return results;
}

}  // namespace dial::index
