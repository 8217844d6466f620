#ifndef DIAL_INDEX_KMEANS_H_
#define DIAL_INDEX_KMEANS_H_

#include <vector>

#include "la/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

/// \file
/// k-means++ seeding and Lloyd iterations. Used twice in this repo, matching
/// two uses in the paper: the IVF coarse quantizer, and BADGE's k-means++
/// batch selection (Sec. 2.3.4).

namespace dial::index {

class RowSource;

/// k-means++ seeding (Arthur & Vassilvitskii 2007): returns `k` distinct row
/// indices of `data`, chosen with probability proportional to squared
/// distance from the already-picked set.
std::vector<size_t> KMeansPlusPlusSeed(const la::Matrix& data, size_t k,
                                       util::Rng& rng);

struct KMeansResult {
  la::Matrix centroids;          // (k, dim)
  std::vector<int> assignment;   // per data row
  double inertia = 0.0;          // sum of squared distances to centroids
  size_t iterations_run = 0;
};

/// Lloyd's algorithm with k-means++ init. Empty clusters are re-seeded from
/// the farthest point. `k` must be <= data.rows(). `pool` (optional,
/// unowned) parallelizes the assignment step — the O(n*k*dim) hot loop —
/// over data rows; seeding, the update step, and the inertia reduction stay
/// serial so results are bit-identical with and without a pool.
KMeansResult KMeans(const la::Matrix& data, size_t k, size_t max_iterations,
                    util::Rng& rng, util::ThreadPool* pool = nullptr);

/// Streamed-build variant: trains on a bounded sample of `source` (see
/// SampleRows — every row, in order, when the source fits `max_sample_rows`,
/// a deterministic reservoir otherwise) so 10^7-row sources never
/// materialize. The returned `assignment`/`inertia` refer to the SAMPLE
/// rows, not the source: streamed callers (IvfIndex::AddStreamed) only keep
/// the centroids and route full rows chunk by chunk. `k` is clipped to the
/// sample size.
KMeansResult KMeansSampled(const RowSource& source, size_t k,
                           size_t max_iterations, size_t max_sample_rows,
                           uint64_t sample_seed, util::Rng& rng,
                           util::ThreadPool* pool = nullptr);

/// Lloyd iterations warm-started from caller-supplied centroids — the index
/// Refresh path (IVF/IVFPQ coarse quantizers re-converge against drifted
/// embeddings instead of re-seeding). No k-means++, no RNG: a cluster that
/// ends an update empty keeps its previous centroid, so the result is a
/// deterministic function of (data, init, max_iterations) alone — which is
/// what lets AL checkpoints persist just the centroids. `init` is (k, dim);
/// k may exceed data.rows(). With 0 iterations or 0 data rows the centroids
/// pass through unchanged (assignment is still computed for n > 0).
KMeansResult KMeansWarm(const la::Matrix& data, const la::Matrix& init,
                        size_t max_iterations, util::ThreadPool* pool = nullptr);

/// The rebalance test of the inverted files (IvfIndex, IvfPqIndex): their
/// post-training Adds route rows to the nearest frozen centroid, which can
/// pile a drifting insert stream into one cell and collapse nprobe recall,
/// so after such an Add they re-converge their centroids with warm Lloyd
/// steps when this returns true: the fullest of `lists` (cell -> row ids,
/// `rows` stored in all) holds more than 4 times the mean occupancy. Only
/// judged once there are at least two lists and four rows per list.
bool ListsImbalanced(const std::vector<std::vector<int>>& lists, size_t rows);

}  // namespace dial::index

#endif  // DIAL_INDEX_KMEANS_H_
