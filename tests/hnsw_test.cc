#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/matmul_search.h"

namespace dial::index {
namespace {

la::Matrix RandomVectors(size_t n, size_t d, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m(n, d);
  m.RandNormal(rng, 1.0f);
  return m;
}

double RecallVsFlat(const VectorIndex& index, const la::Matrix& data,
                    const la::Matrix& queries, size_t k, Metric metric) {
  FlatIndex flat(data.cols(), metric);
  flat.Add(data);
  const SearchBatch truth = flat.Search(queries, k);
  const SearchBatch got = index.Search(queries, k);
  size_t hits = 0;
  size_t total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int> expected;
    for (const Neighbor& nb : truth[q]) expected.insert(nb.id);
    for (const Neighbor& nb : got[q]) hits += expected.count(nb.id);
    total += truth[q].size();
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

TEST(HnswIndex, EmptySearch) {
  HnswIndex index(8, Metric::kL2, {});
  const auto results = index.Search(RandomVectors(3, 8, 1), 5);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.empty());
}

TEST(HnswIndex, SingleVector) {
  HnswIndex index(4, Metric::kL2, {});
  index.Add(RandomVectors(1, 4, 2));
  const auto results = index.Search(RandomVectors(2, 4, 3), 3);
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].id, 0);
  }
}

TEST(HnswIndex, SelfRetrieval) {
  const la::Matrix data = RandomVectors(100, 8, 4);
  HnswIndex index(8, Metric::kL2, {});
  index.Add(data);
  const auto results = index.Search(data, 1);
  size_t exact = 0;
  for (size_t i = 0; i < data.rows(); ++i) {
    ASSERT_FALSE(results[i].empty());
    if (results[i][0].id == static_cast<int>(i)) ++exact;
  }
  // Graph search from a single entry point: self-retrieval should be
  // essentially perfect on random Gaussian data.
  EXPECT_GE(exact, 98u);
}

TEST(HnswIndex, HighRecallVsExact) {
  const la::Matrix data = RandomVectors(500, 16, 5);
  const la::Matrix queries = RandomVectors(50, 16, 6);
  HnswIndex::Options options;
  options.m = 12;
  options.ef_construction = 100;
  options.ef_search = 64;
  HnswIndex index(16, Metric::kL2, options);
  index.Add(data);
  EXPECT_GT(RecallVsFlat(index, data, queries, 10, Metric::kL2), 0.9);
}

TEST(HnswIndex, RecallGrowsWithEfSearch) {
  const la::Matrix data = RandomVectors(400, 16, 7);
  const la::Matrix queries = RandomVectors(40, 16, 8);
  auto recall_at = [&](size_t ef) {
    HnswIndex::Options options;
    options.ef_search = ef;
    HnswIndex index(16, Metric::kL2, options);
    index.Add(data);
    return RecallVsFlat(index, data, queries, 10, Metric::kL2);
  };
  EXPECT_GE(recall_at(128) + 0.02, recall_at(8));
  EXPECT_GT(recall_at(128), 0.85);
}

la::Matrix Clustered(size_t n, size_t d, size_t clusters, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix centers(clusters, d);
  centers.RandNormal(rng, 8.0f);
  la::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.UniformInt(clusters);
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = centers(c, j) + static_cast<float>(rng.Normal()) * 0.4f;
    }
  }
  return m;
}

TEST(HnswIndex, QueryAwarePruningHelpsOnClusteredData) {
  // The ROADMAP-noted fix: SelectNeighbors now prunes with the HNSW paper's
  // query-aware diversity heuristic (Alg. 4) instead of ignoring `query`.
  // Clustered data is where diversity pruning earns its keep — plain
  // closest-first links trap the beam inside one cluster. The heuristic must
  // not regress recall, and must clear a healthy floor.
  const la::Matrix data = Clustered(600, 16, 12, 21);
  const la::Matrix queries = Clustered(60, 16, 12, 22);
  HnswIndex::Options aware;
  aware.query_aware_pruning = true;  // the default
  HnswIndex::Options closest_first = aware;
  closest_first.query_aware_pruning = false;

  HnswIndex with_heuristic(16, Metric::kL2, aware);
  with_heuristic.Add(data);
  HnswIndex without_heuristic(16, Metric::kL2, closest_first);
  without_heuristic.Add(data);

  const double recall_aware =
      RecallVsFlat(with_heuristic, data, queries, 10, Metric::kL2);
  const double recall_naive =
      RecallVsFlat(without_heuristic, data, queries, 10, Metric::kL2);
  EXPECT_GE(recall_aware + 0.02, recall_naive)
      << "query-aware pruning regressed recall";
  EXPECT_GT(recall_aware, 0.8);
}

TEST(HnswIndex, ThreadedSearchMatchesInline) {
  const la::Matrix data = Clustered(400, 16, 8, 23);
  const la::Matrix queries = Clustered(50, 16, 8, 24);
  HnswIndex index(16, Metric::kL2, {});
  index.Add(data);
  const SearchBatch expected = index.Search(queries, 10);
  util::ThreadPool pool(4);
  index.SetThreadPool(&pool);
  const SearchBatch got = index.Search(queries, 10);
  ASSERT_EQ(expected.size(), got.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(expected[q].size(), got[q].size());
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(expected[q][i].id, got[q][i].id);
      EXPECT_EQ(expected[q][i].distance, got[q][i].distance);
    }
  }
}

TEST(HnswIndex, DeterministicGivenSeed) {
  const la::Matrix data = RandomVectors(200, 8, 9);
  const la::Matrix queries = RandomVectors(10, 8, 10);
  HnswIndex a(8, Metric::kL2, {});
  HnswIndex b(8, Metric::kL2, {});
  a.Add(data);
  b.Add(data);
  const auto ra = a.Search(queries, 5);
  const auto rb = b.Search(queries, 5);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(ra[q].size(), rb[q].size());
    for (size_t i = 0; i < ra[q].size(); ++i) {
      EXPECT_EQ(ra[q][i].id, rb[q][i].id);
    }
  }
}

TEST(HnswIndex, IncrementalAdd) {
  const la::Matrix a = RandomVectors(100, 8, 11);
  const la::Matrix b = RandomVectors(50, 8, 12);
  HnswIndex index(8, Metric::kL2, {});
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 150u);
  // A second-batch vector finds itself.
  la::Matrix query(1, 8);
  std::copy(b.row(7), b.row(7) + 8, query.row(0));
  const auto results = index.Search(query, 1);
  EXPECT_EQ(results[0][0].id, 107);
  EXPECT_NEAR(results[0][0].distance, 0.0f, 1e-5f);
}

TEST(HnswIndex, DegreeBounded) {
  const la::Matrix data = RandomVectors(300, 8, 13);
  HnswIndex::Options options;
  options.m = 6;
  HnswIndex index(8, Metric::kL2, options);
  index.Add(data);
  EXPECT_GT(index.MeanDegree(), 1.0);
  EXPECT_LE(index.MeanDegree(), 12.0);  // layer-0 cap is 2*m
  EXPECT_GE(index.max_level(), 0);
}

TEST(HnswIndex, KLargerThanSize) {
  HnswIndex index(8, Metric::kL2, {});
  index.Add(RandomVectors(5, 8, 14));
  const auto results = index.Search(RandomVectors(1, 8, 15), 20);
  EXPECT_EQ(results[0].size(), 5u);
}

TEST(HnswIndex, DuplicateVectors) {
  // Many identical points must not break neighbour selection.
  la::Matrix data(20, 4, 1.0f);
  HnswIndex index(4, Metric::kL2, {});
  index.Add(data);
  la::Matrix query(1, 4, 1.0f);
  const auto results = index.Search(query, 5);
  ASSERT_EQ(results[0].size(), 5u);
  for (const Neighbor& nb : results[0]) EXPECT_NEAR(nb.distance, 0.0f, 1e-6f);
}

// ---------------------------------------------------------------------------
// Entry-point liveness: removals must keep the search anchor on a live node.

/// The entry point must be live, sit on the highest level any live node
/// occupies, and agree with max_level(); an all-dead graph must anchor
/// nowhere and search empty.
void CheckEntryInvariants(const HnswIndex& index) {
  size_t live = 0;
  int best_level = -1;
  for (size_t id = 0; id < index.size(); ++id) {
    if (index.IsRemoved(static_cast<int>(id))) continue;
    ++live;
    best_level = std::max(best_level, index.node_level(static_cast<int>(id)));
  }
  if (live == 0) {
    EXPECT_EQ(index.entry_point(), -1);
    EXPECT_EQ(index.max_level(), -1);
    return;
  }
  const int entry = index.entry_point();
  ASSERT_GE(entry, 0);
  EXPECT_FALSE(index.IsRemoved(entry));
  EXPECT_EQ(index.node_level(entry), best_level);
  EXPECT_EQ(index.max_level(), best_level);
}

TEST(HnswIndex, RemovingEntryPointRepairsAnchor) {
  const la::Matrix data = RandomVectors(120, 8, 21);
  HnswIndex index(8, Metric::kL2, {});
  index.Add(data);
  const la::Matrix queries = RandomVectors(10, 8, 22);
  util::Rng rng(23);
  size_t live = index.size();
  while (live > 0) {
    // Alternate between shooting the anchor itself (forcing a repair) and a
    // random live node (exercising the no-repair-needed path).
    int victim = index.entry_point();
    if (live % 2 == 0 || index.IsRemoved(victim)) {
      do {
        victim = static_cast<int>(rng.UniformInt(index.size()));
      } while (index.IsRemoved(victim));
    }
    index.Remove(victim);
    --live;
    CheckEntryInvariants(index);
    const SearchBatch results = index.Search(queries, 5);
    for (const auto& neighbors : results) {
      EXPECT_LE(neighbors.size(), std::min<size_t>(5, live));
      for (const Neighbor& nb : neighbors) {
        EXPECT_FALSE(index.IsRemoved(nb.id)) << "tombstoned id surfaced";
      }
      if (live == 0) {
        EXPECT_TRUE(neighbors.empty());
      }
    }
  }
  EXPECT_EQ(index.entry_point(), -1);

  // The graph must come back to life after draining: fresh adds re-anchor.
  index.Add(RandomVectors(5, 8, 24));
  CheckEntryInvariants(index);
  const SearchBatch revived = index.Search(queries, 3);
  for (const auto& neighbors : revived) EXPECT_FALSE(neighbors.empty());
}

TEST(HnswIndex, CompactAfterRemovalsKeepsRecall) {
  const la::Matrix data = RandomVectors(300, 16, 25);
  const la::Matrix queries = RandomVectors(25, 16, 26);
  HnswIndex::Options options;
  options.ef_search = 64;
  HnswIndex index(16, Metric::kL2, options);
  index.Add(data);
  // Tombstone every third row, compact, and check quality over survivors.
  std::vector<bool> dead(data.rows(), false);
  for (size_t i = 0; i < data.rows(); i += 3) {
    index.Remove(static_cast<int>(i));
    dead[i] = true;
  }
  CheckEntryInvariants(index);
  index.Compact();
  EXPECT_EQ(index.dead_count(), 0u);
  CheckEntryInvariants(index);

  std::vector<int> live_ids;
  la::Matrix survivors(data.rows() - (data.rows() + 2) / 3, 16);
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dead[i]) continue;
    std::copy(data.row(i), data.row(i) + 16, survivors.row(live_ids.size()));
    live_ids.push_back(static_cast<int>(i));
  }
  FlatIndex flat(16, Metric::kL2);
  flat.Add(survivors);
  const SearchBatch truth = flat.Search(queries, 10);
  const SearchBatch got = index.Search(queries, 10);
  size_t hits = 0, total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::set<int> expected;
    for (const Neighbor& nb : truth[q]) {
      expected.insert(live_ids[static_cast<size_t>(nb.id)]);
    }
    for (const Neighbor& nb : got[q]) hits += expected.count(nb.id);
    total += truth[q].size();
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.7);
}

class HnswMetrics : public testing::TestWithParam<Metric> {};

TEST_P(HnswMetrics, ReasonableRecallUnderEveryMetric) {
  const Metric metric = GetParam();
  const la::Matrix data = RandomVectors(300, 16, 16);
  const la::Matrix queries = RandomVectors(30, 16, 17);
  HnswIndex::Options options;
  options.ef_search = 64;
  HnswIndex index(16, metric, options);
  index.Add(data);
  EXPECT_GT(RecallVsFlat(index, data, queries, 10, metric), 0.7);
}

INSTANTIATE_TEST_SUITE_P(Metrics, HnswMetrics,
                         testing::Values(Metric::kL2, Metric::kInnerProduct,
                                         Metric::kCosine));

// ---------------------------------------------------------------------------
// Blocked-matmul exact search: must agree with FlatIndex bit-for-bit on ids.
// The scan tiles 64 queries against 256 stored rows per GEMM, so the shapes
// below straddle both tile edges.

class MatmulMetrics : public testing::TestWithParam<Metric> {};

TEST_P(MatmulMetrics, ExactlyMatchesFlat) {
  const Metric metric = GetParam();
  // 600 rows = blocks of 256 + 256 + 88; 130 queries = tiles of 64 + 64 + 2.
  const la::Matrix data = RandomVectors(600, 8, 18);
  const la::Matrix queries = RandomVectors(130, 8, 19);
  FlatIndex flat(8, metric);
  flat.Add(data);
  MatmulSearchIndex matmul(8, metric);
  matmul.Add(data);
  const auto a = flat.Search(queries, 7);
  const auto b = matmul.Search(queries, 7);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size());
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "metric "
                                        << static_cast<int>(metric) << " q " << q;
      EXPECT_NEAR(a[q][i].distance, b[q][i].distance, 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, MatmulMetrics,
                         testing::Values(Metric::kL2, Metric::kInnerProduct,
                                         Metric::kCosine));

TEST(MatmulSearchIndex, TileBoundarySizes) {
  // Rows and queries around the block/tile edges (edge - 1, edge, edge + 1).
  for (const size_t n : {1u, 255u, 256u, 257u, 513u}) {
    for (const size_t m : {1u, 63u, 64u, 65u}) {
      const la::Matrix data = RandomVectors(n, 4, 20 + n);
      MatmulSearchIndex index(4, Metric::kL2);
      index.Add(data);
      FlatIndex flat(4, Metric::kL2);
      flat.Add(data);
      const la::Matrix queries = RandomVectors(m, 4, 40 + n + m);
      const auto a = flat.Search(queries, 3);
      const auto b = index.Search(queries, 3);
      ASSERT_EQ(b.size(), m);
      for (size_t q = 0; q < m; ++q) {
        ASSERT_EQ(a[q].size(), b[q].size()) << "n=" << n << " m=" << m;
        for (size_t i = 0; i < a[q].size(); ++i) {
          EXPECT_EQ(a[q][i].id, b[q][i].id) << "n=" << n << " m=" << m;
        }
      }
    }
  }
}

TEST(MatmulSearchIndex, IncrementalAddAcrossBlockBoundary) {
  MatmulSearchIndex index(4, Metric::kL2);
  // 200 + 100 rows: the second Add straddles the 256-row block edge.
  const la::Matrix a = RandomVectors(200, 4, 60);
  const la::Matrix b = RandomVectors(100, 4, 61);
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 300u);
  // Copies of b's rows 55 and 56 (ids 255 and 256, the last row of the
  // first block and the first of the second).
  la::Matrix query(2, 4);
  std::copy(b.row(55), b.row(55) + 4, query.row(0));
  std::copy(b.row(56), b.row(56) + 4, query.row(1));
  const auto results = index.Search(query, 1);
  EXPECT_EQ(results[0][0].id, 255);
  EXPECT_NEAR(results[0][0].distance, 0.0f, 1e-5f);
  EXPECT_EQ(results[1][0].id, 256);
  EXPECT_NEAR(results[1][0].distance, 0.0f, 1e-5f);
}

TEST(MatmulSearchIndex, EmptySearch) {
  MatmulSearchIndex index(8, Metric::kL2);
  const auto results = index.Search(RandomVectors(2, 8, 62), 4);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
}

}  // namespace
}  // namespace dial::index
