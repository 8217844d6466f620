#ifndef DIAL_INDEX_HNSW_INDEX_H_
#define DIAL_INDEX_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/vector_index.h"
#include "util/rng.h"

/// \file
/// Hierarchical Navigable Small World graphs (Malkov & Yashunin; the
/// faiss::IndexHNSW analogue). Graph-based ANN: each vector is a node in a
/// layered proximity graph; queries greedily descend from the top layer and
/// run a best-first beam (width `ef_search`) on the bottom layer. Insertion
/// order and the level RNG are seeded, so builds are deterministic.

namespace dial::index {

class HnswIndex : public VectorIndex {
 public:
  struct Options {
    /// Max out-degree per node per layer (layer 0 allows 2*m).
    size_t m = 8;
    /// Beam width while inserting.
    size_t ef_construction = 64;
    /// Beam width while querying (raised to k when k is larger).
    size_t ef_search = 32;
    uint64_t seed = 37;
  };

  HnswIndex(size_t dim, Options options);

  void Add(const la::Matrix& vectors) override;
  size_t size() const override { return data_.rows(); }
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Tombstones `id` and repairs the entry point when the removed node was
  /// anchoring it: searches greedily descend from `entry_point_`, so leaving
  /// it on a dead node would anchor every future query (and insert) on an id
  /// that can never be returned — and leaving it at -1 with live data would
  /// crash the descent. The repair re-anchors on the highest-level live
  /// node (ties to the smallest id); when every node is dead the entry
  /// drops to -1 and Search returns empty result lists. Dead nodes remain
  /// graph waypoints — removal never edits links, so reachability of the
  /// survivors is untouched until Compact rebuilds the graph.
  void Remove(int id) override;

  /// Lifecycle: the graph is rebuilt (links depend on the vectors), but a
  /// warm refresh reuses each node's level assignment and inserts in prior
  /// entry-point order — highest level first, stable by id — so the layered
  /// topology carries over; ids beyond the previous size draw fresh levels
  /// from a deterministic side stream. Cold refresh replays a fresh build
  /// bit-identically (level RNG reset to the seed).
  using VectorIndex::Refresh;  // keep the default-options overload visible
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;
  /// Warm state: the per-node level assignments.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  const Options& options() const { return options_; }
  /// Highest layer currently in the graph (-1 when empty; diagnostics).
  int max_level() const { return max_level_; }
  /// Current search anchor (-1 when no live node remains; diagnostics).
  /// Invariant: when >= 0, it names a live node whose level is the maximum
  /// over all live nodes, and equals max_level().
  int entry_point() const { return entry_point_; }
  /// Layer assignment of node `id` (diagnostics; id must be < size()).
  int node_level(int id) const { return nodes_[static_cast<size_t>(id)].level; }
  /// Mean out-degree on layer 0 (diagnostics for graph health).
  double MeanDegree() const;

 protected:
  /// Rebuilds the graph from the surviving vectors, reusing each survivor's
  /// level assignment and inserting highest-level-first (stable by id) —
  /// the warm-Refresh ordering, so compaction is deterministic.
  void CompactRows(const std::vector<int>& keep) override;

 private:
  struct Node {
    int level = 0;
    /// links[l] = neighbour ids on layer l, 0 <= l <= level.
    std::vector<std::vector<int>> links;
  };

  int DrawLevel(util::Rng& rng) const;
  int RandomLevel() { return DrawLevel(level_rng_); }
  /// Re-anchors entry_point_/max_level_ on the highest-level live node
  /// (smallest id on ties), or -1/-1 when no live node remains. max_level_
  /// must track the entry's own level: the greedy descent indexes
  /// nodes_[entry].links[l] for l up to max_level_.
  void RepairEntryPoint();
  /// Greedy best-first search on one layer starting from `entry`; returns up
  /// to `ef` closest nodes, ascending by distance.
  std::vector<Neighbor> SearchLayer(const float* query, int entry, size_t ef,
                                    int level) const;
  /// Malkov's neighbour-selection heuristic (Alg. 4): keeps candidates that
  /// are closer to `query` than to any already-kept neighbour (diversity
  /// pruning). Distances to the query are recomputed from `query` itself, so
  /// the selection is correct regardless of what the candidates' cached
  /// `distance` fields were measured against.
  std::vector<int> SelectNeighbors(const float* query,
                                   const std::vector<Neighbor>& candidates,
                                   size_t max_links) const;
  void InsertOne(int id, int level);
  size_t MaxLinks(int level) const {
    return level == 0 ? 2 * options_.m : options_.m;
  }

  Options options_;
  util::Rng level_rng_;
  la::Matrix data_;
  std::vector<Node> nodes_;
  int entry_point_ = -1;
  int max_level_ = -1;
  /// Level assignments restored from a checkpoint, consumed by the next warm
  /// Refresh (empty otherwise — live refreshes read levels from nodes_).
  std::vector<int> warm_levels_;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_HNSW_INDEX_H_
