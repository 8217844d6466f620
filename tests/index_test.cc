#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "index/flat_index.h"
#include "index/ivf_index.h"
#include "index/kmeans.h"
#include "index/lsh_index.h"
#include "index/topk.h"

namespace dial::index {
namespace {

la::Matrix RandomVectors(size_t n, size_t d, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m(n, d);
  m.RandNormal(rng, 1.0f);
  return m;
}

/// Brute-force reference kNN over the rows whose id is not in `dead`.
std::vector<Neighbor> Reference(const la::Matrix& data, const float* query, size_t k,
                                const std::set<int>& dead = {}) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < data.rows(); ++i) {
    if (dead.count(static_cast<int>(i)) != 0) continue;
    all.push_back({static_cast<int>(i),
                   la::SquaredDistance(query, data.row(i), data.cols())});
  }
  const size_t kept = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kept, all.end());
  all.resize(kept);
  return all;
}

TEST(TopK, KeepsSmallest) {
  TopK topk(3);
  for (const float d : {5.0f, 1.0f, 3.0f, 2.0f, 4.0f}) {
    topk.Push(static_cast<int>(d), d);
  }
  const auto out = topk.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FLOAT_EQ(out[0].distance, 1.0f);
  EXPECT_FLOAT_EQ(out[1].distance, 2.0f);
  EXPECT_FLOAT_EQ(out[2].distance, 3.0f);
}

TEST(TopK, ZeroK) {
  TopK topk(0);
  // A heap that keeps nothing is full from the start, and its threshold is
  // defined: -inf, below every distance.
  EXPECT_TRUE(topk.full());
  EXPECT_EQ(topk.Threshold(), -std::numeric_limits<float>::infinity());
  topk.Push(1, 1.0f);
  topk.Push(2, std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(topk.Take().empty());
}

TEST(TopK, InfinityIsKeptWhileNotFull) {
  // Threshold() reads +inf until the heap holds k, so a filter comparing
  // against it there would drop a +inf distance that Push keeps.
  const float inf = std::numeric_limits<float>::infinity();
  TopK topk(2);
  topk.Push(1, inf);
  EXPECT_FALSE(topk.full());
  topk.Push(2, 1.0f);
  EXPECT_TRUE(topk.full());
  EXPECT_EQ(topk.Threshold(), inf);
  const auto out = topk.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2);
  EXPECT_EQ(out[1].id, 1);
  EXPECT_EQ(out[1].distance, inf);
}

TEST(TopK, TieWithWorstKeptIsRejected) {
  TopK topk(2);
  topk.Push(1, 1.0f);
  topk.Push(2, 3.0f);
  topk.Push(3, 3.0f);
  EXPECT_EQ(topk.Threshold(), 3.0f);
  const auto out = topk.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_EQ(out[1].id, 2);
}

TEST(TopK, NanIsNeverRejected) {
  // NaN >= x is false, so Push keeps a NaN while filling and lets it evict
  // the worst kept neighbour once full.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  TopK filling(2);
  filling.Push(1, nan);
  EXPECT_EQ(filling.Take().size(), 1u);

  TopK full(2);
  full.Push(1, 1.0f);
  full.Push(2, 2.0f);
  full.Push(3, nan);
  const auto out = full.Take();
  ASSERT_EQ(out.size(), 2u);
  const std::set<int> ids = {out[0].id, out[1].id};
  EXPECT_EQ(ids, (std::set<int>{1, 3}));
}

TEST(TopK, FewerThanK) {
  TopK topk(10);
  topk.Push(1, 2.0f);
  topk.Push(2, 1.0f);
  const auto out = topk.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 2);
}

TEST(TopK, ThresholdTracksWorst) {
  TopK topk(2);
  EXPECT_TRUE(std::isinf(topk.Threshold()));
  topk.Push(1, 5.0f);
  topk.Push(2, 3.0f);
  EXPECT_FLOAT_EQ(topk.Threshold(), 5.0f);
  topk.Push(3, 1.0f);
  EXPECT_FLOAT_EQ(topk.Threshold(), 3.0f);
}

/// Asserts ids and distance bits equal the brute-force reference.
void ExpectMatchesReference(const SearchBatch& results, const la::Matrix& data,
                            const la::Matrix& queries, size_t k,
                            const std::set<int>& dead, const std::string& shape) {
  ASSERT_EQ(results.size(), queries.rows()) << shape;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected = Reference(data, queries.row(q), k, dead);
    ASSERT_EQ(results[q].size(), expected.size()) << shape << " query " << q;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[q][i].id, expected[i].id)
          << shape << " query " << q << " rank " << i;
      EXPECT_EQ(results[q][i].distance, expected[i].distance)
          << shape << " query " << q << " rank " << i;
    }
  }
}

TEST(FlatIndex, MatchesBruteForce) {
  // Stored rows around the 16-row kernel groups and the 256-row scan
  // blocks, queries around the 64-query tiles, dims with and without a
  // 16-lane chunk and a dim tail.
  for (const size_t n : {1u, 15u, 16u, 17u, 255u, 256u, 257u, 600u}) {
    for (const size_t nq : {1u, 63u, 64u, 65u}) {
      for (const size_t d : {8u, 32u, 33u}) {
        const la::Matrix data = RandomVectors(n, d, 1 + n * 3 + d);
        const la::Matrix queries = RandomVectors(nq, d, 2 + nq * 5 + d);
        FlatIndex index(d);
        index.Add(data);
        ExpectMatchesReference(index.Search(queries, 5), data, queries, 5, {},
                               "n=" + std::to_string(n) + " q=" +
                                   std::to_string(nq) + " d=" + std::to_string(d));
      }
    }
  }
}

TEST(FlatIndex, MatchesBruteForceWithTombstonesAndAfterCompact) {
  const la::Matrix data = RandomVectors(600, 33, 41);
  const la::Matrix queries = RandomVectors(65, 33, 43);
  FlatIndex index(33);
  index.Add(data);
  // Every third row plus a run across the first block boundary.
  std::set<int> dead;
  for (int id = 1; id < 600; id += 3) dead.insert(id);
  for (int id = 250; id < 270; ++id) dead.insert(id);
  for (const int id : dead) index.Remove(id);
  ExpectMatchesReference(index.Search(queries, 7), data, queries, 7, dead,
                         "tombstones");
  index.Compact();
  ExpectMatchesReference(index.Search(queries, 7), data, queries, 7, dead,
                         "compacted");
}

TEST(FlatIndex, IncrementalAdd) {
  const la::Matrix a = RandomVectors(5, 4, 3);
  const la::Matrix b = RandomVectors(7, 4, 4);
  FlatIndex index(4);
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 12u);
  // Vector 7 (second batch, row 2) must be findable by its own value.
  la::Matrix query(1, 4);
  std::copy(b.row(2), b.row(2) + 4, query.row(0));
  const auto results = index.Search(query, 1);
  EXPECT_EQ(results[0][0].id, 7);
  EXPECT_NEAR(results[0][0].distance, 0.0f, 1e-6f);
}

TEST(FlatIndex, SelfRetrieval) {
  const la::Matrix data = RandomVectors(30, 6, 5);
  FlatIndex index(6);
  index.Add(data);
  const auto results = index.Search(data, 1);
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(results[i][0].id, static_cast<int>(i));
  }
}

TEST(FlatIndex, NonFiniteDistancesMatchPushingEveryRow) {
  // Rows at +inf or NaN distance pass the scan's threshold filter exactly as
  // they pass TopK::Push: the result equals pushing every row in order, for
  // heaps that fill and heaps that never do.
  la::Matrix data = RandomVectors(300, 16, 51);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const size_t row : {3u, 40u, 257u}) data(row, 5) = inf;
  for (const size_t row : {7u, 120u, 256u, 299u}) data(row, 2) = nan;
  const la::Matrix queries = RandomVectors(9, 16, 53);
  FlatIndex index(16);
  index.Add(data);
  for (const size_t k : {1u, 3u, 10u, 400u}) {
    const SearchBatch results = index.Search(queries, k);
    for (size_t q = 0; q < queries.rows(); ++q) {
      TopK reference(k);
      for (size_t i = 0; i < data.rows(); ++i) {
        reference.Push(static_cast<int>(i),
                       la::SquaredDistance(queries.row(q), data.row(i), 16));
      }
      const auto expected = reference.Take();
      ASSERT_EQ(results[q].size(), expected.size()) << "k=" << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(results[q][i].id, expected[i].id) << "k=" << k << " rank " << i;
        EXPECT_EQ(std::memcmp(&results[q][i].distance, &expected[i].distance,
                              sizeof(float)),
                  0)
            << "k=" << k << " rank " << i;
      }
    }
  }
}

TEST(FlatIndex, ParallelMatchesSerial) {
  const la::Matrix data = RandomVectors(50, 8, 6);
  const la::Matrix queries = RandomVectors(20, 8, 7);
  FlatIndex serial(8);
  serial.Add(data);
  util::ThreadPool pool(2);
  FlatIndex parallel(8, &pool);
  parallel.Add(data);
  const auto a = serial.Search(queries, 4);
  const auto b = parallel.Search(queries, 4);
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size());
    for (size_t i = 0; i < a[q].size(); ++i) EXPECT_EQ(a[q][i].id, b[q][i].id);
  }
}

TEST(KMeansPlusPlus, DistinctSeeds) {
  const la::Matrix data = RandomVectors(40, 4, 8);
  util::Rng rng(9);
  const auto seeds = KMeansPlusPlusSeed(data, 10, rng);
  const std::set<size_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(KMeansPlusPlus, SpreadsAcrossClusters) {
  // Two well-separated blobs; picking 2 seeds should take one from each.
  la::Matrix data(20, 2);
  util::Rng rng(10);
  for (size_t i = 0; i < 10; ++i) {
    data(i, 0) = static_cast<float>(rng.Normal()) * 0.1f;
    data(i, 1) = static_cast<float>(rng.Normal()) * 0.1f;
    data(i + 10, 0) = 100.0f + static_cast<float>(rng.Normal()) * 0.1f;
    data(i + 10, 1) = 100.0f + static_cast<float>(rng.Normal()) * 0.1f;
  }
  const auto seeds = KMeansPlusPlusSeed(data, 2, rng);
  EXPECT_NE(seeds[0] < 10, seeds[1] < 10);
}

TEST(KMeans, RecoversSeparatedClusters) {
  la::Matrix data(30, 2);
  util::Rng rng(11);
  for (size_t i = 0; i < 15; ++i) {
    data(i, 0) = static_cast<float>(rng.Normal());
    data(i, 1) = static_cast<float>(rng.Normal());
    data(i + 15, 0) = 50.0f + static_cast<float>(rng.Normal());
    data(i + 15, 1) = 50.0f + static_cast<float>(rng.Normal());
  }
  const KMeansResult result = KMeans(data, 2, 20, rng);
  // All points in the same blob share an assignment.
  for (size_t i = 1; i < 15; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (size_t i = 16; i < 30; ++i) {
    EXPECT_EQ(result.assignment[i], result.assignment[15]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[15]);
}

TEST(KMeans, InertiaImprovesOverSingleCluster) {
  const la::Matrix data = RandomVectors(50, 4, 12);
  util::Rng rng(13);
  const KMeansResult one = KMeans(data, 1, 5, rng);
  const KMeansResult many = KMeans(data, 8, 10, rng);
  EXPECT_LT(many.inertia, one.inertia);
}

TEST(IvfIndex, ExactWhenProbingAllCells) {
  const la::Matrix data = RandomVectors(80, 8, 14);
  const la::Matrix queries = RandomVectors(10, 8, 15);
  IvfIndex::Options options;
  options.nlist = 8;
  options.nprobe = 8;  // probe everything -> exact
  IvfIndex index(8, options);
  index.Add(data);
  const auto results = index.Search(queries, 3);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected = Reference(data, queries.row(q), 3);
    ASSERT_EQ(results[q].size(), 3u);
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(results[q][i].id, expected[i].id);
  }
}

TEST(IvfIndex, ApproximateRecallReasonable) {
  const la::Matrix data = RandomVectors(200, 8, 16);
  IvfIndex::Options options;
  options.nlist = 16;
  options.nprobe = 4;
  IvfIndex index(8, options);
  index.Add(data);
  const la::Matrix queries = RandomVectors(50, 8, 17);
  const auto results = index.Search(queries, 5);
  size_t hits = 0;
  size_t total = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto expected = Reference(data, queries.row(q), 5);
    std::set<int> expected_ids;
    for (const auto& nb : expected) expected_ids.insert(nb.id);
    for (const auto& nb : results[q]) hits += expected_ids.count(nb.id);
    total += expected.size();
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.5);
}

TEST(IvfIndex, IncrementalAddAfterTraining) {
  const la::Matrix a = RandomVectors(50, 4, 18);
  const la::Matrix b = RandomVectors(10, 4, 19);
  IvfIndex index(4, {});
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 60u);
  la::Matrix query(1, 4);
  std::copy(b.row(0), b.row(0) + 4, query.row(0));
  const auto results = index.Search(query, 1);
  EXPECT_EQ(results[0][0].id, 50);
}

TEST(LshIndex, SelfRetrieval) {
  const la::Matrix data = RandomVectors(40, 8, 20);
  LshIndex index(8, {});
  index.Add(data);
  const auto results = index.Search(data, 1);
  for (size_t i = 0; i < data.rows(); ++i) {
    ASSERT_FALSE(results[i].empty());
    EXPECT_EQ(results[i][0].id, static_cast<int>(i));  // own bucket
  }
}

TEST(LshIndex, ReturnsSubsetOfDataIds) {
  const la::Matrix data = RandomVectors(30, 8, 21);
  LshIndex index(8, {});
  index.Add(data);
  const la::Matrix queries = RandomVectors(5, 8, 22);
  for (const auto& neighbors : index.Search(queries, 10)) {
    for (const auto& nb : neighbors) {
      EXPECT_GE(nb.id, 0);
      EXPECT_LT(nb.id, 30);
    }
  }
}

TEST(LshIndex, BucketDiagnostics) {
  const la::Matrix data = RandomVectors(100, 8, 23);
  LshIndex index(8, {});
  index.Add(data);
  EXPECT_GT(index.MeanBucketSize(), 0.0);
}

// Two points in 8 tables of 2^12 buckets: a random query direction almost
// surely shares no bucket with either point (hashes depend on direction
// only), which is exactly the empty-bucket case the fallback exists for.
// The fallback-off twin identifies which queries have empty buckets, so the
// fallback assertions below are known to exercise the exact-scan branch.
TEST(LshIndex, ExactFallbackCoversEmptyBucketQueries) {
  const la::Matrix data = RandomVectors(2, 8, 24);
  LshIndex::Options bare;  // multiprobe on, fallback off: differs from the
  bare.exact_fallback = false;  // full config only in the branch under test
  LshIndex without(8, bare);
  without.Add(data);
  LshIndex with(8, {});  // defaults: multiprobe + fallback on
  with.Add(data);
  FlatIndex truth(8);
  truth.Add(data);

  const la::Matrix queries = RandomVectors(4, 8, 25);
  const auto bare_results = without.Search(queries, 5);
  const auto results = with.Search(queries, 5);
  const auto expected = truth.Search(queries, 5);
  size_t empty_bucket_queries = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    ASSERT_FALSE(results[q].empty()) << q;  // non-empty index, never empty
    if (bare_results[q].empty()) {
      // Buckets + multiprobe found nothing -> the exact-scan fallback must
      // deliver the true neighbor list.
      ++empty_bucket_queries;
      ASSERT_EQ(results[q].size(), 2u) << q;
      EXPECT_EQ(results[q][0].id, expected[q][0].id) << q;
    }
  }
  // The seed is chosen so at least one query misses every bucket; without
  // this the test would silently stop covering the fallback branch.
  ASSERT_GT(empty_bucket_queries, 0u);
}

}  // namespace
}  // namespace dial::index
