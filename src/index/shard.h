#ifndef DIAL_INDEX_SHARD_H_
#define DIAL_INDEX_SHARD_H_

#include <functional>
#include <memory>
#include <vector>

#include "index/vector_index.h"

/// \file
/// `IndexShard` — one logical `VectorIndex` partitioned round-robin across S
/// sub-indexes of any backend (the faiss::IndexShards analogue). The point
/// is the *parallelism axis*: a single backend parallelizes Search over
/// query rows, which a one-query workload (the serving path) or a
/// cache-unfriendly 10^6-row scan cannot exploit; sharding fans the same
/// work over data partitions instead, so even a single query uses every
/// worker, and per-shard scans stay cache-resident.
///
/// Id mapping: global id g lives in shard g % S as local id g / S. The
/// mapping is monotone within a shard, so each shard's (distance, local id)
/// result order IS its (distance, global id) order, and the cross-shard
/// merge — sort by `Neighbor::operator<`, truncate to k — is deterministic.
///
/// Determinism contract (the repo-wide invariant): sub-indexes never get a
/// pool (they always run inline), IndexShard fans over *shards*, and the
/// merge runs serially in query order — so results are bit-identical with
/// and without an attached pool, and independent of worker count. For exact
/// backends (flat/matmul) S shards are additionally bit-identical to S=1:
/// both produce the (distance, id)-lexicographic k smallest over identical
/// per-pair distances. Quantizing backends train per shard, so different S
/// values quantize differently — only S=1 matches the unsharded index.

namespace dial::index {

class IndexShard : public VectorIndex {
 public:
  /// Creates one sub-index; called `num_shards` times at construction and
  /// again when a Refresh must rebuild a shard from scratch.
  using Factory = std::function<std::unique_ptr<VectorIndex>()>;

  /// `factory` must produce empty indexes of dimension `dim`.
  IndexShard(size_t dim, size_t num_shards, Factory factory);

  void Add(const la::Matrix& vectors) override;
  /// Rows physically stored across shards (shrinks on Compact). Id routing
  /// uses the monotone assigned-id counter, not this.
  size_t size() const override;
  SearchBatch Search(const la::Matrix& queries, size_t k) const override;

  /// Mutations fan to the owning shard: global id g lives in shard g % S as
  /// local id g / S, and local ids are stable across shard-local compaction,
  /// so the mapping (and the merge contract) survives every mutation.
  void Remove(int id) override;
  bool IsRemoved(int id) const override;
  size_t dead_count() const override;
  /// Compacts every shard (disjoint, so the fan-out runs over the pool with
  /// the usual bit-identity guarantee).
  void Compact() override;

  /// Fans the per-shard partitions out to the sub-indexes' own Refresh.
  /// Stats aggregate: warm = every non-empty shard warm, retrained = any
  /// shard retrained, drift = max across shards.
  using VectorIndex::Refresh;
  RefreshStats Refresh(const la::Matrix& vectors,
                       const RefreshOptions& options) override;

  /// Warm state: shard count + each sub-index's warm state, in shard order.
  void SaveWarmState(util::BinaryWriter& writer) const override;
  util::Status LoadWarmState(util::BinaryReader& reader) override;

  size_t num_shards() const { return shards_.size(); }
  const VectorIndex& shard(size_t s) const { return *shards_[s]; }

 private:
  /// Splits rows [0, n) of `vectors` (carrying global ids base..base+n-1)
  /// into per-shard row blocks, preserving global order within each shard.
  std::vector<la::Matrix> Partition(const la::Matrix& vectors,
                                    size_t base) const;

  Factory factory_;
  std::vector<std::unique_ptr<VectorIndex>> shards_;
  /// Global ids ever assigned by Add (monotone — never shrinks, so id
  /// routing g % S / g / S stays valid after removals and compactions).
  size_t assigned_ = 0;
};

}  // namespace dial::index

#endif  // DIAL_INDEX_SHARD_H_
