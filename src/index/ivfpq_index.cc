#include "index/ivfpq_index.h"

#include <algorithm>
#include <limits>

#include "index/kmeans.h"
#include "index/row_source.h"
#include "index/topk.h"
#include "la/kernels.h"

namespace dial::index {

IvfPqIndex::IvfPqIndex(size_t dim, Options options)
    : VectorIndex(dim), options_(options), pq_(dim, options.pq) {
  DIAL_CHECK_GT(options_.nlist, 0u);
}

size_t IvfPqIndex::NearestCell(const float* x, float* dist) const {
  la::kernels::SquaredDistanceBatch(x, centroids_.data(), centroids_.rows(),
                                    dim_, dist);
  // Not kernels::ArgMin: this scan starts from +inf, so a NaN first
  // distance loses to the first finite one.
  size_t best = 0;
  float best_d = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    if (dist[c] < best_d) {
      best_d = dist[c];
      best = c;
    }
  }
  return best;
}

void IvfPqIndex::EncodeInto(const la::Matrix& vectors, size_t base_id) {
  // Cell routing is row-independent; fan it out, then share the encode path
  // with Refresh (which gets its cells from the warm Lloyd assignment).
  std::vector<int> cells(vectors.rows());
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    std::vector<float> dist(centroids_.rows());
    for (size_t i = begin; i < end; ++i) {
      cells[i] = static_cast<int>(NearestCell(vectors.row(i), dist.data()));
    }
  });
  EncodeWithCells(vectors, base_id, cells);
}

void IvfPqIndex::EncodeWithCells(const la::Matrix& vectors, size_t base_id,
                                 const std::vector<int>& cells) {
  // Residual PQ encoding is row-independent; fan it out over the pool into
  // per-row slots, then append to the inverted lists serially in row order
  // (identical list layout to inline execution).
  const size_t code_size = pq_.code_size();
  std::vector<uint8_t> codes(vectors.rows() * code_size);
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    std::vector<float> residual(dim_);
    for (size_t i = begin; i < end; ++i) {
      const float* x = vectors.row(i);
      const float* centroid = centroids_.row(cells[i]);
      for (size_t d = 0; d < dim_; ++d) residual[d] = x[d] - centroid[d];
      pq_.Encode(residual.data(), codes.data() + i * code_size);
    }
  });
  for (size_t i = 0; i < vectors.rows(); ++i) {
    const uint8_t* code = codes.data() + i * code_size;
    list_ids_[cells[i]].push_back(static_cast<int>(base_id + i));
    list_codes_[cells[i]].insert(list_codes_[cells[i]].end(), code,
                                 code + code_size);
  }
  count_ += vectors.rows();
}

void IvfPqIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  pq_.SetThreadPool(pool_);
  if (centroids_.empty()) {
    util::Rng rng(options_.seed);
    const size_t nlist = std::min(options_.nlist, vectors.rows());
    KMeansResult km = KMeans(vectors, nlist, options_.train_iterations, rng, pool_);
    centroids_ = std::move(km.centroids);
    list_ids_.assign(nlist, {});
    list_codes_.assign(nlist, {});
    // Train the PQ on residuals of the training batch.
    la::Matrix residuals(vectors.rows(), dim_);
    util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const float* x = vectors.row(i);
        const float* centroid = centroids_.row(km.assignment[i]);
        float* out = residuals.row(i);
        for (size_t d = 0; d < dim_; ++d) out[d] = x[d] - centroid[d];
      }
    });
    pq_.Train(residuals);
    trained_err_ = pq_.QuantizationError(residuals, kDriftSampleRows);
    EncodeInto(vectors, count_);
    return;
  }
  if (trained_err_ > 0.0) {
    // Encode-on-insert behind the drift watch: sample this batch's residual
    // quantization error against the frozen codebooks.
    const size_t sample = std::min(vectors.rows(), kDriftSampleRows);
    la::Matrix residuals(sample, dim_);
    std::vector<float> dist(centroids_.rows());
    for (size_t i = 0; i < sample; ++i) {
      const float* x = vectors.row(i);
      const float* centroid = centroids_.row(NearestCell(x, dist.data()));
      float* out = residuals.row(i);
      for (size_t d = 0; d < dim_; ++d) out[d] = x[d] - centroid[d];
    }
    const double err = pq_.QuantizationError(residuals);
    insert_drift_ = std::max(insert_drift_, err / trained_err_);
  }
  EncodeInto(vectors, count_);
  if (ListsImbalanced(list_ids_, count_)) Rebalance();
}

void IvfPqIndex::Rebalance() {
  // Codes are all we have: reconstruct centroid + decoded residual per row
  // (in internal row order), re-converge the coarse quantizer on the
  // reconstructions, and re-encode against the moved centroids.
  const size_t code_size = pq_.code_size();
  la::Matrix recon(count_, dim_);
  std::vector<float> residual(dim_);
  for (size_t c = 0; c < list_ids_.size(); ++c) {
    const std::vector<int>& ids = list_ids_[c];
    const std::vector<uint8_t>& codes = list_codes_[c];
    const float* centroid = centroids_.row(c);
    for (size_t i = 0; i < ids.size(); ++i) {
      pq_.Decode(codes.data() + i * code_size, residual.data());
      float* out = recon.row(ids[i]);
      for (size_t d = 0; d < dim_; ++d) out[d] = centroid[d] + residual[d];
    }
  }
  KMeansResult km = KMeansWarm(recon, centroids_, /*iterations=*/5, pool_);
  centroids_ = std::move(km.centroids);
  list_ids_.assign(centroids_.rows(), {});
  list_codes_.assign(centroids_.rows(), {});
  count_ = 0;
  EncodeWithCells(recon, 0, km.assignment);
  ++rebalances_;
}

void IvfPqIndex::AddStreamed(const RowSource& source,
                             const StreamOptions& options) {
  DIAL_CHECK_EQ(source.cols(), dim_);
  if (source.rows() == 0) return;
  pq_.SetThreadPool(pool_);
  if (centroids_.empty()) {
    // One bounded sample trains both structures: k-means for the cells, then
    // the residual PQ on that same sample's residuals (mirroring the
    // first-Add path, just against the sample instead of the whole batch).
    const la::Matrix sample = SampleRows(
        source, std::max<size_t>(1, options.train_sample), options.sample_seed);
    util::Rng rng(options_.seed);
    const size_t nlist = std::min(options_.nlist, sample.rows());
    KMeansResult km =
        KMeans(sample, nlist, options_.train_iterations, rng, pool_);
    centroids_ = std::move(km.centroids);
    list_ids_.assign(nlist, {});
    list_codes_.assign(nlist, {});
    la::Matrix residuals(sample.rows(), dim_);
    util::ParallelFor(pool_, sample.rows(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const float* x = sample.row(i);
        const float* centroid = centroids_.row(km.assignment[i]);
        float* out = residuals.row(i);
        for (size_t d = 0; d < dim_; ++d) out[d] = x[d] - centroid[d];
      }
    });
    pq_.Train(residuals);
    trained_err_ = pq_.QuantizationError(residuals, kDriftSampleRows);
  }
  AddStreamedChunks(source, options.chunk_rows);
}

void IvfPqIndex::ResetAll() {
  centroids_ = la::Matrix();
  pq_.Reset();
  trained_err_ = 0.0;
  list_ids_.clear();
  list_codes_.clear();
  count_ = 0;
}

RefreshStats IvfPqIndex::Refresh(const la::Matrix& vectors,
                                 const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  insert_drift_ = 0.0;
  if (!options.warm_start || centroids_.empty() || !pq_.trained()) {
    ResetAll();
    Add(vectors);
    return {};
  }
  RefreshStats stats;
  stats.warm = true;
  pq_.SetThreadPool(pool_);
  KMeansResult km =
      KMeansWarm(vectors, centroids_, options.warm_iterations, pool_);
  if (options.drift_threshold > 0.0 && trained_err_ > 0.0) {
    // Drift is measured where this index quantizes: on residuals against the
    // re-converged centroids, over the bounded head sample.
    const size_t sample = std::min(vectors.rows(), kDriftSampleRows);
    la::Matrix residuals(sample, dim_);
    for (size_t i = 0; i < sample; ++i) {
      const float* x = vectors.row(i);
      const float* centroid = km.centroids.row(km.assignment[i]);
      float* out = residuals.row(i);
      for (size_t d = 0; d < dim_; ++d) out[d] = x[d] - centroid[d];
    }
    const double err = pq_.QuantizationError(residuals);
    stats.drift = err / trained_err_;
    if (stats.drift > options.drift_threshold) {
      stats.warm = false;
      stats.retrained = true;
      ResetAll();
      Add(vectors);
      return stats;
    }
  }
  centroids_ = std::move(km.centroids);
  list_ids_.assign(centroids_.rows(), {});
  list_codes_.assign(centroids_.rows(), {});
  count_ = 0;
  EncodeWithCells(vectors, 0, km.assignment);
  return stats;
}

void IvfPqIndex::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU64(centroids_.rows());
  writer.WriteFloats(centroids_.data(), centroids_.size());
  pq_.SaveState(writer);
  writer.WriteF64(trained_err_);
}

util::Status IvfPqIndex::LoadWarmState(util::BinaryReader& reader) {
  const uint64_t rows = reader.ReadU64();
  const std::vector<float> values = reader.ReadFloatVector();
  if (!reader.status().ok()) return reader.status();
  if (rows > (1u << 24) || (rows > 0 && values.size() != rows * dim_)) {
    return util::Status::Corruption("ivfpq warm state shape mismatch");
  }
  DIAL_RETURN_IF_ERROR(pq_.LoadState(reader));
  trained_err_ = reader.ReadF64();
  if (!reader.status().ok()) return reader.status();
  if (rows == 0) return util::Status::OK();
  centroids_ = la::Matrix(rows, dim_);
  std::copy(values.begin(), values.end(), centroids_.data());
  list_ids_.assign(rows, {});
  list_codes_.assign(rows, {});
  count_ = 0;
  ResetLifecycle();
  insert_drift_ = 0.0;
  return util::Status::OK();
}

void IvfPqIndex::CompactRows(const std::vector<int>& keep) {
  // old internal row -> new internal row (-1 = dropped).
  std::vector<int> remap(count_, -1);
  for (size_t i = 0; i < keep.size(); ++i) remap[keep[i]] = static_cast<int>(i);
  const size_t code_size = pq_.code_size();
  for (size_t c = 0; c < list_ids_.size(); ++c) {
    std::vector<int>& ids = list_ids_[c];
    std::vector<uint8_t>& codes = list_codes_[c];
    size_t out = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (remap[ids[i]] < 0) continue;
      ids[out] = remap[ids[i]];
      if (out != i) {
        std::copy(codes.begin() + i * code_size,
                  codes.begin() + (i + 1) * code_size,
                  codes.begin() + out * code_size);
      }
      ++out;
    }
    ids.resize(out);
    codes.resize(out * code_size);
  }
  count_ = keep.size();
}

SearchBatch IvfPqIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  if (count_ == 0) return results;
  const size_t nprobe = std::min(options_.nprobe, centroids_.rows());
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    // Scratch is per chunk, mirroring the pq_index contract: residual/table
    // buffers, the batched centroid/ADC distance buffers, and both top-k
    // heaps are hoisted and reused across queries, so the steady-state scan
    // performs no allocation beyond the result lists.
    std::vector<float> residual(dim_);
    std::vector<float> table;
    std::vector<float> cell_dist(centroids_.rows());
    std::vector<float> adc;  // grown to the largest probed list, then reused
    TopK cell_topk(nprobe);
    TopK topk(k);
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.row(q);
      // Batched centroid scan (bit-identical to the scalar distance per row).
      la::kernels::SquaredDistanceBatch(query, centroids_.data(),
                                        centroids_.rows(), dim_,
                                        cell_dist.data());
      cell_topk.Reset(nprobe);
      for (size_t c = 0; c < centroids_.rows(); ++c) {
        cell_topk.Push(static_cast<int>(c), cell_dist[c]);
      }
      topk.Reset(k);
      for (const Neighbor& cell : cell_topk.Sorted()) {
        // ADC table on this cell's residual of the query.
        const float* centroid = centroids_.row(cell.id);
        for (size_t d = 0; d < dim_; ++d) residual[d] = query[d] - centroid[d];
        pq_.ComputeDistanceTable(residual.data(), table);
        const std::vector<int>& ids = list_ids_[cell.id];
        const std::vector<uint8_t>& codes = list_codes_[cell.id];
        if (adc.size() < ids.size()) adc.resize(ids.size());
        pq_.AdcDistanceBatch(table, codes.data(), ids.size(), adc.data());
        PushRows(topk, adc.data(), ids.size(),
                 [&ids](size_t i) { return static_cast<size_t>(ids[i]); });
      }
      const std::vector<Neighbor>& sorted = topk.Sorted();
      results[q].assign(sorted.begin(), sorted.end());
    }
  });
  return results;
}

}  // namespace dial::index
