#include "index/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "index/topk.h"

namespace dial::index {

HnswIndex::HnswIndex(size_t dim, Options options)
    : VectorIndex(dim), options_(options), level_rng_(options.seed) {
  DIAL_CHECK_GT(options_.m, 1u);
  DIAL_CHECK_GT(options_.ef_construction, 0u);
  DIAL_CHECK_GT(options_.ef_search, 0u);
}

int HnswIndex::DrawLevel(util::Rng& rng) const {
  // Geometric level distribution with the standard normalization
  // mL = 1 / ln(m): P(level >= l) = m^-l.
  const double ml = 1.0 / std::log(static_cast<double>(options_.m));
  const double u = std::max(rng.Uniform(), 1e-12);
  return static_cast<int>(-std::log(u) * ml);
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query, int entry,
                                             size_t ef, int level) const {
  // Best-first beam search. `candidates` pops the closest unexpanded node;
  // `result` keeps the ef closest found so far (max-heap on distance).
  std::vector<char> visited(nodes_.size(), 0);
  auto closer = [](const Neighbor& a, const Neighbor& b) {
    return a.distance > b.distance;  // min-heap on distance
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(closer)>
      candidates(closer);
  TopK result(ef);

  const float d0 = Distance(query, data_.row(entry));
  candidates.push({entry, d0});
  result.Push(entry, d0);
  visited[entry] = 1;

  while (!candidates.empty()) {
    const Neighbor current = candidates.top();
    candidates.pop();
    if (current.distance > result.Threshold()) break;
    const std::vector<int>& links = nodes_[current.id].links[level];
    for (const int nb : links) {
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float d = Distance(query, data_.row(nb));
      if (d < result.Threshold() || result.size() < ef) {
        candidates.push({nb, d});
        result.Push(nb, d);
      }
    }
  }
  return result.Take();
}

std::vector<int> HnswIndex::SelectNeighbors(const float* query,
                                            const std::vector<Neighbor>& candidates,
                                            size_t max_links) const {
  std::vector<int> kept;
  kept.reserve(max_links);
  for (const Neighbor& cand : candidates) {  // ascending by distance
    if (kept.size() >= max_links) break;
    // Recomputed from `query` rather than read from cand.distance so the
    // pruning stays query-relative even for callers whose candidate lists
    // carry distances measured against something else. (Both current call
    // sites cache d(query, cand), so this costs one extra O(dim) distance
    // per candidate at build time and changes no results for them.)
    const float d_to_query = Distance(query, data_.row(cand.id));
    bool dominated = false;
    for (const int existing : kept) {
      const float d_to_kept = Distance(data_.row(cand.id), data_.row(existing));
      if (d_to_kept < d_to_query) {
        dominated = true;  // closer to a kept neighbour than to the query
        break;
      }
    }
    if (!dominated) kept.push_back(cand.id);
  }
  // Backfill with the closest dominated candidates if the heuristic was too
  // aggressive (keeps the graph connected on clustered data).
  if (kept.size() < max_links) {
    for (const Neighbor& cand : candidates) {
      if (kept.size() >= max_links) break;
      if (std::find(kept.begin(), kept.end(), cand.id) == kept.end()) {
        kept.push_back(cand.id);
      }
    }
  }
  return kept;
}

void HnswIndex::InsertOne(int id, int level) {
  Node& node = nodes_[id];
  node.level = level;
  node.links.assign(level + 1, {});

  if (entry_point_ < 0) {
    entry_point_ = id;
    max_level_ = level;
    return;
  }

  const float* query = data_.row(id);
  int entry = entry_point_;
  // Greedy descent through layers above the node's level.
  for (int l = max_level_; l > level; --l) {
    bool improved = true;
    float best = Distance(query, data_.row(entry));
    while (improved) {
      improved = false;
      for (const int nb : nodes_[entry].links[l]) {
        const float d = Distance(query, data_.row(nb));
        if (d < best) {
          best = d;
          entry = nb;
          improved = true;
        }
      }
    }
  }
  // Connect on every layer from min(level, max_level_) down to 0.
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    std::vector<Neighbor> found =
        SearchLayer(query, entry, options_.ef_construction, l);
    std::vector<int> neighbors = SelectNeighbors(query, found, MaxLinks(l));
    node.links[l] = neighbors;
    for (const int nb : neighbors) {
      std::vector<int>& back = nodes_[nb].links[l];
      back.push_back(id);
      if (back.size() > MaxLinks(l)) {
        // Re-select the neighbour's links with the same heuristic.
        std::vector<Neighbor> pool;
        pool.reserve(back.size());
        for (const int x : back) {
          pool.push_back({x, Distance(data_.row(nb), data_.row(x))});
        }
        std::sort(pool.begin(), pool.end());
        back = SelectNeighbors(data_.row(nb), pool, MaxLinks(l));
      }
    }
    if (!found.empty()) entry = found.front().id;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
}

void HnswIndex::RepairEntryPoint() {
  int best = -1;
  int best_level = -1;
  for (size_t row = 0; row < nodes_.size(); ++row) {
    if (!RowLive(row)) continue;
    if (nodes_[row].level > best_level) {
      best_level = nodes_[row].level;
      best = static_cast<int>(row);
    }
  }
  entry_point_ = best;
  max_level_ = best_level;
}

void HnswIndex::Remove(int id) {
  VectorIndex::Remove(id);
  if (entry_point_ >= 0 && !RowLive(static_cast<size_t>(entry_point_))) {
    RepairEntryPoint();
  }
}

void HnswIndex::CompactRows(const std::vector<int>& keep) {
  la::Matrix packed(keep.size(), dim_);
  std::vector<int> levels(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    const float* src = data_.row(keep[i]);
    std::copy(src, src + dim_, packed.row(i));
    levels[i] = nodes_[keep[i]].level;
  }
  data_ = std::move(packed);
  nodes_.assign(keep.size(), {});
  entry_point_ = -1;
  max_level_ = -1;
  // Same insertion ordering as a warm Refresh: kept levels, highest level
  // first, stable by id — deterministic regardless of removal history.
  std::vector<int> order(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (levels[a] != levels[b]) return levels[a] > levels[b];
    return a < b;
  });
  for (const int id : order) InsertOne(id, levels[id]);
  warm_levels_.clear();
}

void HnswIndex::Add(const la::Matrix& vectors) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  const size_t base = data_.rows();
  if (data_.empty()) {
    data_ = vectors;
  } else {
    la::Matrix merged(base + vectors.rows(), dim_);
    std::copy(data_.data(), data_.data() + data_.size(), merged.data());
    std::copy(vectors.data(), vectors.data() + vectors.size(),
              merged.data() + data_.size());
    data_ = std::move(merged);
  }
  nodes_.resize(data_.rows());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    InsertOne(static_cast<int>(base + i), RandomLevel());
  }
  // Checkpoint-restored levels describe a snapshot this Add just diverged
  // from; the live nodes_ are now the source of truth for the next refresh.
  warm_levels_.clear();
}

RefreshStats HnswIndex::Refresh(const la::Matrix& vectors,
                                const RefreshOptions& options) {
  DIAL_CHECK_EQ(vectors.cols(), dim_);
  if (vectors.rows() == 0) return {};
  ResetLifecycle();
  std::vector<int> prev_levels = std::move(warm_levels_);
  warm_levels_.clear();
  if (prev_levels.empty()) {
    prev_levels.reserve(nodes_.size());
    for (const Node& node : nodes_) prev_levels.push_back(node.level);
  }
  const bool warm = options.warm_start && !prev_levels.empty();

  const size_t n = vectors.rows();
  data_ = vectors;
  nodes_.assign(n, {});
  entry_point_ = -1;
  max_level_ = -1;

  if (!warm) {
    // Bit-identical to a freshly constructed index + Add.
    level_rng_ = util::Rng(options_.seed);
    for (size_t i = 0; i < n; ++i) {
      InsertOne(static_cast<int>(i), RandomLevel());
    }
    return {};
  }

  // Reuse the prior level per surviving id; ids past the previous size draw
  // from a side stream seeded only by (seed, n) so a checkpoint-resumed
  // refresh reproduces a live one without persisting any RNG state.
  std::vector<int> levels(n);
  util::Rng grow_rng(options_.seed ^ (0x9e3779b97f4a7c15ULL * (n + 1)));
  for (size_t i = 0; i < n; ++i) {
    levels[i] = i < prev_levels.size() ? prev_levels[i] : DrawLevel(grow_rng);
  }
  // Prior entry-point ordering: the old entry point (max level) goes first,
  // ties broken by id, so greedy descents land in familiar territory from
  // the first insertion on.
  std::vector<int> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (levels[a] != levels[b]) return levels[a] > levels[b];
    return a < b;
  });
  for (const int id : order) InsertOne(id, levels[id]);
  RefreshStats stats;
  stats.warm = true;
  return stats;
}

void HnswIndex::SaveWarmState(util::BinaryWriter& writer) const {
  const size_t n = nodes_.empty() ? warm_levels_.size() : nodes_.size();
  writer.WriteU64(n);
  if (!nodes_.empty()) {
    for (const Node& node : nodes_) writer.WriteU32(static_cast<uint32_t>(node.level));
  } else {
    for (const int level : warm_levels_) writer.WriteU32(static_cast<uint32_t>(level));
  }
}

util::Status HnswIndex::LoadWarmState(util::BinaryReader& reader) {
  const uint64_t n = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (n > (1u << 24)) return util::Status::Corruption("hnsw warm state too large");
  std::vector<int> levels;
  levels.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t level = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (level > 64) return util::Status::Corruption("hnsw warm level out of range");
    levels.push_back(static_cast<int>(level));
  }
  warm_levels_ = std::move(levels);
  return util::Status::OK();
}

SearchBatch HnswIndex::Search(const la::Matrix& queries, size_t k) const {
  DIAL_CHECK_EQ(queries.cols(), dim_);
  SearchBatch results(queries.rows());
  // entry_point_ < 0 with non-empty data means every node is tombstoned
  // (Remove repaired the entry away): nothing is returnable, and descending
  // from a -1 entry would read data_.row(-1).
  if (data_.empty() || entry_point_ < 0) return results;
  // Dead nodes stay in the graph as waypoints until Compact, but they are
  // filtered from results — widen the beam by the stored dead count so k
  // live neighbours still fit.
  const size_t ef = std::max(options_.ef_search, k) + dead_count();
  // Queries are independent: the graph is read-only during Search and every
  // per-query structure (beam, visited set) lives in SearchLayer's frame.
  util::ParallelFor(pool_, queries.rows(), [&](size_t begin, size_t end) {
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.row(q);
      int entry = entry_point_;
      for (int l = max_level_; l > 0; --l) {
        bool improved = true;
        float best = Distance(query, data_.row(entry));
        while (improved) {
          improved = false;
          for (const int nb : nodes_[entry].links[l]) {
            const float d = Distance(query, data_.row(nb));
            if (d < best) {
              best = d;
              entry = nb;
              improved = true;
            }
          }
        }
      }
      std::vector<Neighbor> found = SearchLayer(query, entry, ef, 0);
      std::vector<Neighbor>& out = results[q];
      out.reserve(std::min(found.size(), k));
      for (const Neighbor& nb : found) {
        if (out.size() >= k) break;
        if (!RowLive(nb.id)) continue;
        out.push_back({IdOf(nb.id), nb.distance});
      }
    }
  });
  return results;
}

double HnswIndex::MeanDegree() const {
  if (nodes_.empty()) return 0.0;
  size_t total = 0;
  for (const Node& node : nodes_) total += node.links[0].size();
  return static_cast<double>(total) / static_cast<double>(nodes_.size());
}

}  // namespace dial::index
