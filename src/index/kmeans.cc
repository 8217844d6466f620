#include "index/kmeans.h"

#include <algorithm>
#include <limits>

#include "index/row_source.h"
#include "la/kernels.h"

namespace dial::index {

// Accumulation contract (la/kernels.h): every point-to-centroid distance is
// a float32 batch-kernel result — the same values the index backends compute
// during Search — while reductions ACROSS points (the k-means++ sampling
// total, the inertia) accumulate in double. Mixing the two the other way
// round (double per-distance, float totals) is what this file used to do
// inconsistently with flat/ivf scans.

std::vector<size_t> KMeansPlusPlusSeed(const la::Matrix& data, size_t k,
                                       util::Rng& rng) {
  const size_t n = data.rows();
  DIAL_CHECK_GT(n, 0u);
  DIAL_CHECK_LE(k, n);
  std::vector<size_t> centers;
  centers.reserve(k);
  centers.push_back(static_cast<size_t>(rng.UniformInt(n)));
  std::vector<float> min_sq(n, std::numeric_limits<float>::infinity());
  std::vector<float> dist(n);
  while (centers.size() < k) {
    la::kernels::SquaredDistanceBatch(data.row(centers.back()), data.data(), n,
                                      data.cols(), dist.data());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (dist[i] < min_sq[i]) min_sq[i] = dist[i];
      total += min_sq[i];
    }
    size_t chosen = 0;
    if (total <= 0.0) {
      // All points coincide with existing centers; fall back to uniform over
      // not-yet-chosen indices.
      do {
        chosen = static_cast<size_t>(rng.UniformInt(n));
      } while (min_sq[chosen] == 0.0f &&
               std::count(centers.begin(), centers.end(), chosen) > 0);
    } else {
      double target = rng.Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_sq[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    }
    centers.push_back(chosen);
  }
  return centers;
}

KMeansResult KMeans(const la::Matrix& data, size_t k, size_t max_iterations,
                    util::Rng& rng, util::ThreadPool* pool) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  DIAL_CHECK_GE(n, k);
  DIAL_CHECK_GT(k, 0u);

  KMeansResult result;
  result.centroids = la::Matrix(k, d);
  const auto seeds = KMeansPlusPlusSeed(data, k, rng);
  for (size_t c = 0; c < k; ++c) {
    std::copy(data.row(seeds[c]), data.row(seeds[c]) + d, result.centroids.row(c));
  }
  result.assignment.assign(n, 0);

  std::vector<size_t> counts(k);
  std::vector<float> best_dist(n);
  std::vector<char> row_changed(n);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    // Assignment step: rows are independent, so this — the O(n*k*d) bulk of
    // each iteration — fans out over the pool. Each row scans all centroids
    // with one batch-kernel call, then writes only its own
    // assignment/best_dist/row_changed slots; the inertia reduction below
    // runs serially in row order (double accumulation) so the total matches
    // inline execution exactly.
    util::ParallelFor(pool, n, [&](size_t begin, size_t end) {
      std::vector<float> dist(k);
      for (size_t i = begin; i < end; ++i) {
        la::kernels::SquaredDistanceBatch(data.row(i), result.centroids.data(),
                                          k, d, dist.data());
        const int best_c = static_cast<int>(la::kernels::ArgMin(dist.data(), k));
        row_changed[i] = result.assignment[i] != best_c;
        result.assignment[i] = best_c;
        best_dist[i] = dist[best_c];
      }
    });
    result.iterations_run = iter + 1;
    result.inertia = 0.0;
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      result.inertia += best_dist[i];
      changed = changed || row_changed[i] != 0;
    }
    if (!changed && iter > 0) break;

    // Update step.
    result.centroids.Zero();
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const int c = result.assignment[i];
      ++counts[c];
      float* crow = result.centroids.row(c);
      const float* xrow = data.row(i);
      for (size_t j = 0; j < d; ++j) crow[j] += xrow[j];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed the empty cluster from a random data point.
        const size_t pick = static_cast<size_t>(rng.UniformInt(n));
        std::copy(data.row(pick), data.row(pick) + d, result.centroids.row(c));
        continue;
      }
      const float inv = 1.0f / static_cast<float>(counts[c]);
      float* crow = result.centroids.row(c);
      for (size_t j = 0; j < d; ++j) crow[j] *= inv;
    }
  }
  return result;
}

KMeansResult KMeansSampled(const RowSource& source, size_t k,
                           size_t max_iterations, size_t max_sample_rows,
                           uint64_t sample_seed, util::Rng& rng,
                           util::ThreadPool* pool) {
  DIAL_CHECK_GT(source.rows(), 0u);
  const la::Matrix sample =
      SampleRows(source, std::max(max_sample_rows, k), sample_seed);
  return KMeans(sample, std::min(k, sample.rows()), max_iterations, rng, pool);
}

KMeansResult KMeansWarm(const la::Matrix& data, const la::Matrix& init,
                        size_t max_iterations, util::ThreadPool* pool) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = init.rows();
  DIAL_CHECK_GT(k, 0u);
  DIAL_CHECK_EQ(init.cols(), d);

  KMeansResult result;
  result.centroids = init;
  if (n == 0) return result;
  result.assignment.assign(n, 0);

  std::vector<size_t> counts(k);
  std::vector<float> best_dist(n);
  std::vector<char> row_changed(n);
  la::Matrix prev = init;
  // Same iteration structure (and the same batch-kernel accumulation
  // contract) as KMeans above; only seeding and empty-cluster handling
  // differ. One extra trailing assignment pass keeps `assignment`/`inertia`
  // consistent with the returned centroids even at max_iterations == 0.
  for (size_t iter = 0; iter <= max_iterations; ++iter) {
    util::ParallelFor(pool, n, [&](size_t begin, size_t end) {
      std::vector<float> dist(k);
      for (size_t i = begin; i < end; ++i) {
        la::kernels::SquaredDistanceBatch(data.row(i), result.centroids.data(),
                                          k, d, dist.data());
        const int best_c = static_cast<int>(la::kernels::ArgMin(dist.data(), k));
        row_changed[i] = result.assignment[i] != best_c;
        result.assignment[i] = best_c;
        best_dist[i] = dist[best_c];
      }
    });
    result.inertia = 0.0;
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      result.inertia += best_dist[i];
      changed = changed || row_changed[i] != 0;
    }
    if (iter == max_iterations) break;
    result.iterations_run = iter + 1;
    if (!changed && iter > 0) break;

    prev = result.centroids;
    result.centroids.Zero();
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) {
      const int c = result.assignment[i];
      ++counts[c];
      float* crow = result.centroids.row(c);
      const float* xrow = data.row(i);
      for (size_t j = 0; j < d; ++j) crow[j] += xrow[j];
    }
    for (size_t c = 0; c < k; ++c) {
      float* crow = result.centroids.row(c);
      if (counts[c] == 0) {
        // Empty cluster: keep the previous centroid in place.
        std::copy(prev.row(c), prev.row(c) + d, crow);
        continue;
      }
      const float inv = 1.0f / static_cast<float>(counts[c]);
      for (size_t j = 0; j < d; ++j) crow[j] *= inv;
    }
  }
  return result;
}

bool ListsImbalanced(const std::vector<std::vector<int>>& lists, size_t rows) {
  constexpr double kRebalanceFactor = 4.0;
  if (lists.size() <= 1 || rows < 4 * lists.size()) return false;
  size_t max_list = 0;
  for (const auto& list : lists) max_list = std::max(max_list, list.size());
  const double mean =
      static_cast<double>(rows) / static_cast<double>(lists.size());
  return static_cast<double>(max_list) > kRebalanceFactor * mean;
}

}  // namespace dial::index
