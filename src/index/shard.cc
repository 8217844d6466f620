#include "index/shard.h"

#include <algorithm>
#include <utility>

namespace dial::index {

IndexShard::IndexShard(size_t dim, size_t num_shards, Factory factory)
    : VectorIndex(dim), factory_(std::move(factory)) {
  DIAL_CHECK_GT(num_shards, 0u);
  DIAL_CHECK(factory_ != nullptr);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(factory_());
    DIAL_CHECK(shards_.back() != nullptr);
    DIAL_CHECK_EQ(shards_.back()->dim(), dim);
    DIAL_CHECK_EQ(shards_.back()->size(), 0u) << "factory must produce empty indexes";
  }
}

std::vector<la::Matrix> IndexShard::Partition(const la::Matrix& vectors,
                                              size_t base) const {
  const size_t S = shards_.size();
  const size_t n = vectors.rows();
  std::vector<size_t> rows_per(S, 0);
  for (size_t i = 0; i < n; ++i) ++rows_per[(base + i) % S];
  std::vector<la::Matrix> parts(S);
  std::vector<size_t> next(S, 0);
  for (size_t s = 0; s < S; ++s) parts[s] = la::Matrix(rows_per[s], dim_);
  // Serial, in global row order: within each shard, local order follows
  // global order, which is what makes per-shard result order equal
  // (distance, global id) order after the local->global mapping.
  for (size_t i = 0; i < n; ++i) {
    const size_t s = (base + i) % S;
    const float* src = vectors.row(i);
    std::copy(src, src + dim_, parts[s].row(next[s]++));
  }
  return parts;
}

size_t IndexShard::size() const {
  size_t stored = 0;
  for (const auto& shard : shards_) stored += shard->size();
  return stored;
}

void IndexShard::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return;
  std::vector<la::Matrix> parts = Partition(vectors, assigned_);
  // Shards are disjoint: each iteration touches exactly one sub-index, and
  // sub-indexes run inline (no pool), so chunk boundaries cannot change
  // per-shard build results — pool and inline execution are bit-identical.
  util::ParallelFor(pool_, shards_.size(), [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      shards_[s]->Add(parts[s]);
    }
  });
  assigned_ += vectors.rows();
}

void IndexShard::Remove(int id) {
  DIAL_CHECK_GE(id, 0);
  DIAL_CHECK_LT(static_cast<size_t>(id), assigned_)
      << "Remove of an id never assigned by Add";
  const size_t S = shards_.size();
  shards_[static_cast<size_t>(id) % S]->Remove(
      static_cast<int>(static_cast<size_t>(id) / S));
}

bool IndexShard::IsRemoved(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= assigned_) return false;
  const size_t S = shards_.size();
  return shards_[static_cast<size_t>(id) % S]->IsRemoved(
      static_cast<int>(static_cast<size_t>(id) / S));
}

size_t IndexShard::dead_count() const {
  size_t dead = 0;
  for (const auto& shard : shards_) dead += shard->dead_count();
  return dead;
}

void IndexShard::Compact() {
  util::ParallelFor(pool_, shards_.size(), [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      shards_[s]->Compact();
    }
  });
}

SearchBatch IndexShard::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  const size_t S = shards_.size();
  const size_t m = queries.rows();
  // Fan over shards, not queries: every worker runs the full query batch
  // against one partition, so a single query still uses every worker — the
  // axis a per-query fan cannot parallelize.
  std::vector<SearchBatch> per_shard(S);
  util::ParallelFor(pool_, S, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      per_shard[s] = shards_[s]->Search(queries, k);
    }
  });
  // Serial merge in query order. Each shard list arrives sorted; after the
  // local->global id mapping a plain sort by Neighbor::operator< (distance,
  // then id — a strict total order, ids are unique) and truncation to k
  // reproduces exactly what one index over the union would keep.
  SearchBatch results(m);
  std::vector<Neighbor> merged;
  for (size_t q = 0; q < m; ++q) {
    merged.clear();
    for (size_t s = 0; s < S; ++s) {
      for (const Neighbor& nb : per_shard[s][q]) {
        merged.push_back(
            {static_cast<int>(static_cast<size_t>(nb.id) * S + s),
             nb.distance});
      }
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > k) merged.resize(k);
    results[q] = merged;
  }
  return results;
}

RefreshStats IndexShard::Refresh(const la::Matrix& vectors,
                                 const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  std::vector<la::Matrix> parts = Partition(vectors, 0);
  const size_t S = shards_.size();
  // Refresh(0 rows) is a documented no-op, but a shard must not keep stale
  // contents when its new partition is empty (n < S): rebuild it empty.
  // Serially — the factory is caller code and need not be thread-safe.
  for (size_t s = 0; s < S; ++s) {
    if (parts[s].rows() == 0 && shards_[s]->size() > 0) {
      shards_[s] = factory_();
    }
  }
  std::vector<RefreshStats> per_shard(S);
  util::ParallelFor(pool_, S, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      if (parts[s].rows() == 0) continue;
      per_shard[s] = shards_[s]->Refresh(parts[s], options);
    }
  });
  assigned_ = vectors.rows();
  RefreshStats stats;
  stats.warm = true;
  for (size_t s = 0; s < S; ++s) {
    if (parts[s].rows() == 0) continue;
    stats.warm = stats.warm && per_shard[s].warm;
    stats.retrained = stats.retrained || per_shard[s].retrained;
    stats.drift = std::max(stats.drift, per_shard[s].drift);
  }
  return stats;
}

void IndexShard::SaveWarmState(util::BinaryWriter& writer) const {
  writer.WriteU64(shards_.size());
  for (const auto& shard : shards_) shard->SaveWarmState(writer);
}

util::Status IndexShard::LoadWarmState(util::BinaryReader& reader) {
  const uint64_t count = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (count != shards_.size()) {
    return util::Status::Corruption("shard warm state: shard count mismatch");
  }
  for (const auto& shard : shards_) {
    DIAL_RETURN_IF_ERROR(shard->LoadWarmState(reader));
  }
  return util::Status::OK();
}

}  // namespace dial::index
