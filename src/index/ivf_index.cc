#include "index/ivf_index.h"

#include <limits>
#include <algorithm>

#include "index/kmeans.h"
#include "index/row_source.h"
#include "index/topk.h"
#include "la/kernels.h"

namespace dial::index {

void IvfIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  const size_t base = data_.rows();
  // Append raw vectors.
  if (data_.empty()) {
    data_ = vectors;
  } else {
    la::Matrix merged(base + vectors.rows(), dim_);
    std::copy(data_.data(), data_.data() + data_.size(), merged.data());
    std::copy(vectors.data(), vectors.data() + vectors.size(),
              merged.data() + data_.size());
    data_ = std::move(merged);
  }
  if (centroids_.empty()) {
    // Train the coarse quantizer on the first batch.
    util::Rng rng(options_.seed);
    const size_t nlist = std::min(options_.nlist, data_.rows());
    KMeansResult km = KMeans(data_, nlist, options_.train_iterations, rng, pool_);
    centroids_ = std::move(km.centroids);
    lists_.assign(nlist, {});
    for (size_t i = 0; i < data_.rows(); ++i) {
      lists_[km.assignment[i]].push_back(static_cast<int>(i));
    }
    return;
  }
  // Assign new vectors to the nearest existing cell: nearest-centroid lookups
  // fan out over the pool (rows are independent); the list appends run
  // serially in row order so cell contents are identical to inline execution.
  std::vector<size_t> cell(vectors.rows());
  util::ParallelFor(pool_, vectors.rows(), [&](size_t begin, size_t end) {
    std::vector<float> dist(centroids_.rows());
    for (size_t i = begin; i < end; ++i) {
      la::kernels::SquaredDistanceBatch(vectors.row(i), centroids_.data(),
                                        centroids_.rows(), dim_, dist.data());
      cell[i] = la::kernels::ArgMin(dist.data(), centroids_.rows());
    }
  });
  for (size_t i = 0; i < vectors.rows(); ++i) {
    lists_[cell[i]].push_back(static_cast<int>(base + i));
  }
  if (ListsImbalanced(lists_, data_.rows())) Rebalance();
}

void IvfIndex::Rebalance() {
  KMeansResult km = KMeansWarm(data_, centroids_, /*iterations=*/5, pool_);
  centroids_ = std::move(km.centroids);
  lists_.assign(centroids_.rows(), {});
  for (size_t i = 0; i < data_.rows(); ++i) {
    lists_[km.assignment[i]].push_back(static_cast<int>(i));
  }
  ++rebalances_;
}

void IvfIndex::AddStreamed(const RowSource& source,
                           const StreamOptions& options) {
  DIAL_CHECK_EQ(source.cols(), dim_);
  if (source.rows() == 0) return;
  if (centroids_.empty()) {
    // Train on the bounded sample only; the sample's assignment is discarded
    // because every row (sampled or not) routes through the chunked-Add
    // nearest-cell path below, keeping one consistent assignment rule.
    util::Rng rng(options_.seed);
    const size_t nlist = std::min(options_.nlist, source.rows());
    KMeansResult km =
        KMeansSampled(source, nlist, options_.train_iterations,
                      options.train_sample, options.sample_seed, rng, pool_);
    centroids_ = std::move(km.centroids);
    lists_.assign(centroids_.rows(), {});
  }
  AddStreamedChunks(source, options.chunk_rows);
}

RefreshStats IvfIndex::Refresh(const la::Matrix& vectors,
                               const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  if (!options.warm_start || centroids_.empty()) {
    // Cold path: drop everything and take the first-Add training route —
    // bit-identical to a freshly constructed index.
    data_ = la::Matrix();
    centroids_ = la::Matrix();
    lists_.clear();
    Add(vectors);
    return {};
  }
  RefreshStats stats;
  stats.warm = true;
  data_ = vectors;
  KMeansResult km = KMeansWarm(data_, centroids_, options.warm_iterations, pool_);
  centroids_ = std::move(km.centroids);
  lists_.assign(centroids_.rows(), {});
  for (size_t i = 0; i < data_.rows(); ++i) {
    lists_[km.assignment[i]].push_back(static_cast<int>(i));
  }
  return stats;
}

void IvfIndex::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU64(centroids_.rows());
  writer.WriteFloats(centroids_.data(), centroids_.size());
}

util::Status IvfIndex::LoadWarmState(util::BinaryReader& reader) {
  const uint64_t rows = reader.ReadU64();
  const std::vector<float> values = reader.ReadFloatVector();
  if (!reader.status().ok()) return reader.status();
  if (rows > (1u << 24) || values.size() != rows * dim_) {
    return util::Status::Corruption("ivf warm state shape mismatch");
  }
  if (rows == 0) return util::Status::OK();
  centroids_ = la::Matrix(rows, dim_);
  std::copy(values.begin(), values.end(), centroids_.data());
  data_ = la::Matrix();
  lists_.assign(rows, {});
  ResetLifecycle();
  return util::Status::OK();
}

void IvfIndex::CompactRows(const std::vector<int>& keep) {
  // old internal row -> new internal row (-1 = dropped).
  std::vector<int> remap(data_.rows(), -1);
  for (size_t i = 0; i < keep.size(); ++i) remap[keep[i]] = static_cast<int>(i);
  la::Matrix packed(keep.size(), dim_);
  for (size_t i = 0; i < keep.size(); ++i) {
    const float* src = data_.row(keep[i]);
    std::copy(src, src + dim_, packed.row(i));
  }
  data_ = std::move(packed);
  for (auto& list : lists_) {
    size_t out = 0;
    for (const int row : list) {
      if (remap[row] >= 0) list[out++] = remap[row];
    }
    list.resize(out);
  }
}

SearchBatch IvfIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  if (data_.empty()) return results;
  const size_t nprobe = std::min(options_.nprobe, centroids_.rows());
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    std::vector<float> cell_dist(centroids_.rows());
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.row(q);
      // Rank cells by centroid distance (always L2 — cells were trained in L2).
      la::kernels::SquaredDistanceBatch(query, centroids_.data(),
                                        centroids_.rows(), dim_,
                                        cell_dist.data());
      TopK cell_topk(nprobe);
      for (size_t c = 0; c < centroids_.rows(); ++c) {
        cell_topk.Push(static_cast<int>(c), cell_dist[c]);
      }
      TopK topk(k);
      for (const Neighbor& cell : cell_topk.Take()) {
        for (const int row : lists_[cell.id]) {
          if (!RowLive(row)) continue;
          topk.Push(IdOf(row), Distance(query, data_.row(row)));
        }
      }
      results[q] = topk.Take();
    }
  });
  return results;
}

}  // namespace dial::index
