#ifndef DIAL_BASELINES_META_BLOCKING_H_
#define DIAL_BASELINES_META_BLOCKING_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file
/// Redundancy-positive blocking and meta-blocking — the classical scalable
/// blocking stack the paper positions DIAL against (Sec. 5.4, [45, 46, 48,
/// 49, 62]). Token blocking puts two records in a common block per shared
/// token; meta-blocking then builds the blocking graph (one weighted edge
/// per co-occurring pair) and prunes it. All five standard edge-weighting
/// schemes and all four pruning algorithms are implemented, including the
/// BLAST-style Pearson chi-square weighting [62].

namespace dial::baselines {

/// One block: the records from each list sharing the blocking key.
struct Block {
  std::string key;
  std::vector<uint32_t> r_ids;
  std::vector<uint32_t> s_ids;

  /// Number of cross-list comparisons the block induces.
  size_t Comparisons() const { return r_ids.size() * s_ids.size(); }
  /// Total records in the block (the "block cardinality" used by CEP/CNP).
  size_t TotalRecords() const { return r_ids.size() + s_ids.size(); }
};

struct BlockCollection {
  std::vector<Block> blocks;
  size_t r_size = 0;
  size_t s_size = 0;

  size_t TotalComparisons() const;
  /// Sum of block cardinalities (Σ|b|), the budget base for CEP/CNP.
  size_t TotalRecordAssignments() const;
};

/// Token blocking (Papadakis et al. [45]): one block per distinct token of
/// length >= `min_token_len` appearing in any attribute value. Single-sided
/// blocks (no r or no s) are dropped on construction.
BlockCollection TokenBlocking(const data::DatasetBundle& bundle,
                              size_t min_token_len = 2);

/// Block purging: removes blocks inducing more than `max_comparisons`
/// comparisons (oversized blocks carry almost no matching signal).
void PurgeBlocks(BlockCollection& collection, size_t max_comparisons);

/// Block filtering: every record keeps only the `ratio` fraction of its
/// smallest blocks; a block survives where at least one r and one s retained
/// it. Standard JedAI pre-processing between purging and meta-blocking.
void FilterBlocks(BlockCollection& collection, double ratio);

/// Edge-weighting schemes for the blocking graph.
enum class EdgeWeighting {
  kCbs,        // common blocks count
  kJs,         // Jaccard of the records' block lists (JedAI default)
  kEcbs,       // CBS scaled by log block-list rarity
  kArcs,       // sum of reciprocal block comparison counts
  kChiSquare,  // Pearson chi-square on the co-occurrence contingency (BLAST)
};

/// Pruning algorithms over the weighted blocking graph.
enum class PruningScheme {
  kWep,  // weighted edge pruning: keep edges >= global mean weight
  kCep,  // cardinality edge pruning: keep the top Σ|b|/2 edges
  kWnp,  // weighted node pruning: keep edges >= a local (node) mean
  kCnp,  // cardinality node pruning: per-node top-k edges
};

/// EdgeWeightingName / PruningSchemeName spellings; InvalidArgument naming
/// the accepted ones otherwise.
util::StatusOr<EdgeWeighting> ParseEdgeWeighting(const std::string& text);
std::string EdgeWeightingName(EdgeWeighting weighting);
util::StatusOr<PruningScheme> ParsePruningScheme(const std::string& text);
std::string PruningSchemeName(PruningScheme scheme);

struct WeightedEdge {
  data::PairId pair;
  double weight = 0.0;
};

struct MetaBlockingConfig {
  EdgeWeighting weighting = EdgeWeighting::kJs;
  PruningScheme pruning = PruningScheme::kWep;
};

struct MetaBlockingResult {
  /// Surviving edges, sorted by descending weight.
  std::vector<WeightedEdge> edges;
  /// Distinct pairs in the blocking graph before pruning.
  size_t input_edges = 0;
};

/// Builds the blocking graph from `collection`, weights every edge under the
/// configured scheme, and prunes. The result's pair set is the candidate set
/// a downstream matcher scores.
///
/// `pool` (optional, unowned) parallelizes the graph-building pass — the
/// O(Σ|b_r|·|b_s|) candidate generation that dominates at 10^6 records.
/// Blocks are processed in fixed 256-block chunks (a grain independent of
/// worker count) into per-chunk partial edge maps, merged serially in chunk
/// order; each edge key appears at most once per chunk, so its statistics
/// accumulate in chunk order regardless of hash iteration or thread
/// scheduling. The inline path runs the identical chunked code, so pooled
/// and inline results are bit-identical (including the double-precision
/// ARCS sums and the WEP mean).
MetaBlockingResult MetaBlock(const BlockCollection& collection,
                             const MetaBlockingConfig& config,
                             util::ThreadPool* pool = nullptr);

}  // namespace dial::baselines

#endif  // DIAL_BASELINES_META_BLOCKING_H_
