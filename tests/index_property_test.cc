#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/ibc.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/ivf_index.h"
#include "index/ivfpq_index.h"
#include "index/lsh_index.h"
#include "index/matmul_search.h"
#include "index/pq_index.h"
#include "index/row_source.h"
#include "index/shard.h"
#include "index/sq_index.h"

/// Seeded randomized property/fuzz harness over the whole backend matrix:
/// (backend x dim in {1, 7, 64} x n in {0, 1, 500} x
///  k in {0, 1, n, n+5} x threads in {0, 2, 8}). Every sampled trial asserts
/// the shared VectorIndex contract — ascending distances, k clamped to n, no
/// duplicate ids, valid id range, pool/inline bit-identity for build, search
/// AND refresh, and refresh(E) matching a fresh build's recall against exact
/// (flat) truth on the drifted vectors. The trial stream is a pure function
/// of the seeds below, so failures replay exactly; bumping kTrialsPerBackend
/// deepens the sweep without touching the assertions.

namespace dial::index {
namespace {

using core::IndexBackend;

constexpr size_t kTrialsPerBackend = 10;
constexpr uint64_t kSuiteSeed = 0xd1a1f022;

struct Trial {
  IndexBackend backend;
  size_t dim;
  size_t n;
  size_t k;
  size_t threads;
  uint64_t seed;

  std::string Describe() const {
    return core::IndexBackendName(backend) + " dim=" + std::to_string(dim) +
           " n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " threads=" + std::to_string(threads) +
           " seed=" + std::to_string(seed);
  }
};

/// Largest divisor of dim <= want (PQ needs num_subspaces | dim).
size_t PqSubspacesFor(size_t dim, size_t want) {
  for (size_t m = std::min(want, dim); m >= 1; --m) {
    if (dim % m == 0) return m;
  }
  return 1;
}

std::unique_ptr<VectorIndex> MakeBackend(const Trial& t) {
  switch (t.backend) {
    case IndexBackend::kFlat:
      return std::make_unique<FlatIndex>(t.dim);
    case IndexBackend::kIvf: {
      IvfIndex::Options options;
      options.nlist = 8;
      options.nprobe = 4;
      return std::make_unique<IvfIndex>(t.dim, options);
    }
    case IndexBackend::kLsh:
      return std::make_unique<LshIndex>(t.dim, LshIndex::Options{});
    case IndexBackend::kPq: {
      ProductQuantizer::Options options;
      options.num_subspaces = PqSubspacesFor(t.dim, 4);
      return std::make_unique<PqIndex>(t.dim, options);
    }
    case IndexBackend::kIvfPq: {
      IvfPqIndex::Options options;
      options.nlist = 8;
      options.nprobe = 8;
      options.pq.num_subspaces = PqSubspacesFor(t.dim, 4);
      return std::make_unique<IvfPqIndex>(t.dim, options);
    }
    case IndexBackend::kSq:
      return std::make_unique<SqIndex>(t.dim);
    case IndexBackend::kHnsw:
      return std::make_unique<HnswIndex>(t.dim, HnswIndex::Options{});
    case IndexBackend::kMatmul:
      return std::make_unique<MatmulSearchIndex>(t.dim);
  }
  return nullptr;
}

bool IsExact(IndexBackend backend) {
  return backend == IndexBackend::kFlat || backend == IndexBackend::kMatmul;
}

la::Matrix Clustered(size_t n, size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  const size_t clusters = std::max<size_t>(1, std::min<size_t>(6, n));
  la::Matrix centers(clusters, dim);
  centers.RandNormal(rng, 8.0f);
  la::Matrix m(n, dim);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.UniformInt(clusters);
    for (size_t j = 0; j < dim; ++j) {
      m(i, j) = centers(c, j) + static_cast<float>(rng.Normal()) * 0.3f;
    }
  }
  return m;
}

la::Matrix Drifted(const la::Matrix& data, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix out = data;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] += static_cast<float>(rng.Normal()) * 0.1f;
  }
  return out;
}

Trial SampleTrial(IndexBackend backend, util::Rng& rng) {
  Trial t;
  t.backend = backend;
  // Trials used to draw a distance metric first (0 = L2, 1 = inner product,
  // 2 = cosine; pq and sq redrew cosine, ivfpq everything but L2). Those
  // draws stay in the stream, so every backend keeps the shapes and seeds
  // it has always been fuzzed on; every trial now runs L2.
  uint64_t retired_metric;
  do {
    retired_metric = rng.UniformInt(3);
  } while ((backend == IndexBackend::kIvfPq && retired_metric != 0) ||
           ((backend == IndexBackend::kPq || backend == IndexBackend::kSq) &&
            retired_metric == 2));
  const size_t dims[] = {1, 7, 64};
  t.dim = dims[rng.UniformInt(3)];
  const size_t ns[] = {0, 1, 500};
  t.n = ns[rng.UniformInt(3)];
  const size_t ks[] = {0, 1, t.n, t.n + 5};
  t.k = ks[rng.UniformInt(4)];
  const size_t threads[] = {0, 2, 8};
  t.threads = threads[rng.UniformInt(3)];
  t.seed = rng.Next();
  return t;
}

void CheckContract(const Trial& t, const SearchBatch& results,
                   size_t expect_queries) {
  ASSERT_EQ(results.size(), expect_queries) << t.Describe();
  for (size_t q = 0; q < results.size(); ++q) {
    const auto& neighbors = results[q];
    // k clamped to n — never more results than asked for or than exist.
    EXPECT_LE(neighbors.size(), std::min(t.k, t.n)) << t.Describe();
    if (IsExact(t.backend)) {
      EXPECT_EQ(neighbors.size(), std::min(t.k, t.n)) << t.Describe();
    }
    std::set<int> seen;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      EXPECT_GE(neighbors[i].id, 0) << t.Describe();
      EXPECT_LT(neighbors[i].id, static_cast<int>(t.n)) << t.Describe();
      EXPECT_TRUE(seen.insert(neighbors[i].id).second)
          << t.Describe() << " duplicate id " << neighbors[i].id;
      if (i > 0) {
        EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance)
            << t.Describe() << " rank " << i;
      }
    }
  }
}

void ExpectBitIdentical(const Trial& t, const SearchBatch& a,
                        const SearchBatch& b) {
  ASSERT_EQ(a.size(), b.size()) << t.Describe();
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << t.Describe() << " query " << q;
    for (size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << t.Describe() << " query " << q;
      EXPECT_EQ(a[q][i].distance, b[q][i].distance)
          << t.Describe() << " query " << q;
    }
  }
}

double Recall(const SearchBatch& truth, const SearchBatch& got) {
  size_t hits = 0;
  size_t total = 0;
  for (size_t q = 0; q < truth.size(); ++q) {
    std::set<int> ids;
    for (const Neighbor& nb : truth[q]) ids.insert(nb.id);
    for (const Neighbor& nb : got[q]) hits += ids.count(nb.id);
    total += truth[q].size();
  }
  return total == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(total);
}

void RunTrial(const Trial& t) {
  SCOPED_TRACE(t.Describe());
  const la::Matrix data = Clustered(t.n, t.dim, t.seed);
  const la::Matrix queries = Clustered(6, t.dim, t.seed ^ 0x9e37);

  // Reference: inline build + inline search.
  auto reference = MakeBackend(t);
  reference->Add(data);
  ASSERT_EQ(reference->size(), t.n);
  const SearchBatch inline_results = reference->Search(queries, t.k);
  CheckContract(t, inline_results, queries.rows());

  // Pool/inline bit-identity for build + search at the trial's thread count.
  if (t.threads > 0) {
    util::ThreadPool pool(t.threads);
    auto threaded = MakeBackend(t);
    threaded->SetThreadPool(&pool);
    threaded->Add(data);
    ExpectBitIdentical(t, inline_results, threaded->Search(queries, t.k));
  }

  // Refresh on drifted vectors: contract + recall parity with a fresh build,
  // and pool/inline bit-identity of the refresh path itself.
  const la::Matrix drifted = Drifted(data, t.seed ^ 0xd41f7);
  reference->Refresh(drifted);
  EXPECT_EQ(reference->size(), t.n);
  const SearchBatch refreshed = reference->Search(queries, t.k);
  CheckContract(t, refreshed, queries.rows());

  if (t.threads > 0) {
    util::ThreadPool pool(t.threads);
    auto threaded = MakeBackend(t);
    threaded->SetThreadPool(&pool);
    threaded->Add(data);
    threaded->Refresh(drifted);
    threaded->SetThreadPool(nullptr);
    ExpectBitIdentical(t, refreshed, threaded->Search(queries, t.k));
  }

  if (t.n > 1 && t.k > 0) {
    auto fresh = MakeBackend(t);
    fresh->Add(drifted);
    FlatIndex truth(t.dim);
    truth.Add(drifted);
    const SearchBatch exact = truth.Search(queries, t.k);
    const double r_refresh = Recall(exact, refreshed);
    const double r_fresh = Recall(exact, fresh->Search(queries, t.k));
    if (IsExact(t.backend)) {
      EXPECT_DOUBLE_EQ(r_refresh, 1.0);
    } else {
      // refresh(E) ≡ fresh-build(E): the warm structure must not fall
      // meaningfully below what a cold build on E achieves.
      EXPECT_GE(r_refresh, r_fresh - 0.25);
    }
  }
}

class BackendFuzz : public testing::TestWithParam<IndexBackend> {};

TEST_P(BackendFuzz, SampledGridHoldsSharedInvariants) {
  util::Rng rng(kSuiteSeed ^
                (0x1000ull * (static_cast<uint64_t>(GetParam()) + 1)));
  for (size_t trial = 0; trial < kTrialsPerBackend; ++trial) {
    RunTrial(SampleTrial(GetParam(), rng));
  }
}

TEST_P(BackendFuzz, EdgeShapesNeverCrash) {
  // The deterministic corners of the grid, independent of the sampler: every
  // (dim, n, k) extreme.
  for (const size_t dim : {size_t{1}, size_t{7}}) {
    for (const size_t n : {size_t{0}, size_t{1}}) {
      for (const size_t k : {size_t{0}, size_t{1}, n, n + 5}) {
        Trial t;
        t.backend = GetParam();
        t.dim = dim;
        t.n = n;
        t.k = k;
        t.threads = 2;
        t.seed = kSuiteSeed ^ (dim * 131 + n * 17 + k);
        RunTrial(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendFuzz, testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

// ---------------------------------------------------------------------------
// IndexShard: the same contract, through the sharded wrapper. Three extra
// invariants ride on top of the shared ones: shard=1 is bit-identical to the
// unsharded backend (the partition is the identity map), exact backends are
// bit-identical across *any* shard count, and pooled fan-out over shards is
// bit-identical to inline.

std::unique_ptr<IndexShard> MakeSharded(const Trial& t, size_t num_shards) {
  return std::make_unique<IndexShard>(
      t.dim, num_shards, [t] { return MakeBackend(t); });
}

class ShardFuzz : public testing::TestWithParam<IndexBackend> {};

TEST_P(ShardFuzz, ContractAndShardCountIdentity) {
  util::Rng rng(kSuiteSeed ^
                (0x2000ull * (static_cast<uint64_t>(GetParam()) + 1)));
  for (size_t trial = 0; trial < kTrialsPerBackend; ++trial) {
    Trial t = SampleTrial(GetParam(), rng);
    SCOPED_TRACE("sharded " + t.Describe());
    const la::Matrix data = Clustered(t.n, t.dim, t.seed);
    const la::Matrix queries = Clustered(6, t.dim, t.seed ^ 0x9e37);
    const size_t shard_counts[] = {1, 3, 8};
    const size_t S = shard_counts[rng.UniformInt(3)];

    auto sharded = MakeSharded(t, S);
    sharded->Add(data);
    ASSERT_EQ(sharded->size(), t.n);
    const SearchBatch results = sharded->Search(queries, t.k);
    CheckContract(t, results, queries.rows());

    // shard=1 ≡ unsharded: every backend, bit for bit.
    auto unsharded = MakeBackend(t);
    unsharded->Add(data);
    auto one = MakeSharded(t, 1);
    one->Add(data);
    ExpectBitIdentical(t, unsharded->Search(queries, t.k),
                       one->Search(queries, t.k));

    // Exact backends: S shards ≡ 1 shard (same per-pair distances, merge by
    // the same (distance, id) total order).
    if (IsExact(t.backend)) {
      ExpectBitIdentical(t, one->Search(queries, t.k), results);
    }

    // Pool/inline bit-identity through the shard fan-out.
    if (t.threads > 0) {
      util::ThreadPool pool(t.threads);
      auto threaded = MakeSharded(t, S);
      threaded->SetThreadPool(&pool);
      threaded->Add(data);
      ExpectBitIdentical(t, results, threaded->Search(queries, t.k));

      // Refresh through the fan-out, shrinking by one row so the rebuild
      // path for newly-empty partitions gets exercised when n is small.
      // Refresh(0 rows) is a no-op per the base contract, so size only
      // changes when there are rows to install.
      const la::Matrix drifted =
          Clustered(t.n > 1 ? t.n - 1 : t.n, t.dim, t.seed ^ 0x77);
      sharded->Refresh(drifted);
      threaded->Refresh(drifted);
      EXPECT_EQ(sharded->size(), drifted.rows() > 0 ? drifted.rows() : t.n);
      const SearchBatch refreshed = sharded->Search(queries, t.k);
      Trial rt = t;
      rt.n = sharded->size();
      CheckContract(rt, refreshed, queries.rows());
      ExpectBitIdentical(rt, refreshed, threaded->Search(queries, t.k));
    }
  }
}

TEST_P(ShardFuzz, MoreShardsThanRows) {
  // n < S leaves shards empty at build; a later Refresh that shrinks the
  // data must also empty previously-filled shards (factory rebuild path).
  Trial t;
  t.backend = GetParam();
  t.dim = 7;
  t.n = 3;
  t.k = 5;
  t.threads = 2;
  t.seed = kSuiteSeed ^ 0xabc;
  SCOPED_TRACE("tiny " + t.Describe());
  const la::Matrix data = Clustered(t.n, t.dim, t.seed);
  const la::Matrix queries = Clustered(4, t.dim, t.seed ^ 0x9e37);
  auto sharded = MakeSharded(t, 8);
  sharded->Add(data);
  EXPECT_EQ(sharded->size(), 3u);
  CheckContract(t, sharded->Search(queries, t.k), queries.rows());

  const la::Matrix one_row = Clustered(1, t.dim, t.seed ^ 0x5);
  sharded->Refresh(one_row);
  EXPECT_EQ(sharded->size(), 1u);
  Trial rt = t;
  rt.n = 1;
  const SearchBatch results = sharded->Search(queries, t.k);
  CheckContract(rt, results, queries.rows());
  for (const auto& neighbors : results) {
    for (const Neighbor& nb : neighbors) EXPECT_EQ(nb.id, 0) << rt.Describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ShardFuzz, testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

// ---------------------------------------------------------------------------
// AddStreamed: the bounded-memory build path. When the source fits the
// training sample, flat/matmul/pq/sq are bit-identical to the materialized
// Add (same training rows in the same order, per-row deterministic encode);
// IVF/IVFPQ re-assign rows against the final centroids, so they keep the
// contract but not bit-identity with Add. Chunk size must never matter:
// training happens once against the full source, then rows encode
// independently.

bool StreamedMatchesAdd(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kIvf:
    case IndexBackend::kIvfPq:
      return false;  // Lloyd assignment ≠ argmin of final centroids
    default:
      return true;
  }
}

class StreamedBuildFuzz : public testing::TestWithParam<IndexBackend> {};

TEST_P(StreamedBuildFuzz, MatchesMaterializedAdd) {
  util::Rng rng(kSuiteSeed ^
                (0x3000ull * (static_cast<uint64_t>(GetParam()) + 1)));
  for (size_t trial = 0; trial < kTrialsPerBackend; ++trial) {
    Trial t = SampleTrial(GetParam(), rng);
    SCOPED_TRACE("streamed " + t.Describe());
    const la::Matrix data = Clustered(t.n, t.dim, t.seed);
    const la::Matrix queries = Clustered(6, t.dim, t.seed ^ 0x9e37);
    const MatrixRowSource source(data);

    auto streamed = MakeBackend(t);
    streamed->AddStreamed(source);
    ASSERT_EQ(streamed->size(), t.n);
    const SearchBatch results = streamed->Search(queries, t.k);
    CheckContract(t, results, queries.rows());

    if (StreamedMatchesAdd(t.backend)) {
      auto materialized = MakeBackend(t);
      materialized->Add(data);
      ExpectBitIdentical(t, materialized->Search(queries, t.k), results);
    }

    // Chunk-size invariance: training saw the whole source either way, and
    // rows encode/insert in the same global order.
    StreamOptions tiny;
    tiny.chunk_rows = 3;
    auto rechunked = MakeBackend(t);
    rechunked->AddStreamed(source, tiny);
    ExpectBitIdentical(t, results, rechunked->Search(queries, t.k));
  }
}

TEST_P(StreamedBuildFuzz, OversizedSourceKeepsContract) {
  // Source bigger than the training sample: the reservoir path. Contract
  // plus exactness for exact backends (their storage doesn't depend on
  // training at all).
  Trial t;
  t.backend = GetParam();
  t.dim = 7;
  t.n = 300;
  t.k = 4;
  t.threads = 0;
  t.seed = kSuiteSeed ^ 0xf00d;
  SCOPED_TRACE("reservoir " + t.Describe());
  const la::Matrix data = Clustered(t.n, t.dim, t.seed);
  const la::Matrix queries = Clustered(6, t.dim, t.seed ^ 0x9e37);
  const MatrixRowSource source(data);
  StreamOptions options;
  options.train_sample = 64;  // << n: forces the reservoir sample
  options.chunk_rows = 50;
  auto streamed = MakeBackend(t);
  streamed->AddStreamed(source, options);
  ASSERT_EQ(streamed->size(), t.n);
  const SearchBatch results = streamed->Search(queries, t.k);
  CheckContract(t, results, queries.rows());
  if (IsExact(t.backend)) {
    auto materialized = MakeBackend(t);
    materialized->Add(data);
    ExpectBitIdentical(t, materialized->Search(queries, t.k), results);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, StreamedBuildFuzz, testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

TEST_P(StreamedBuildFuzz, TrainSampleAboveRowsAboveChunkBoundary) {
  // The train_sample > n > chunk_rows regime: SampleRows takes its identity
  // path (the whole source fits the training sample) while ingestion still
  // spans several chunks. Regression guard — this boundary must behave
  // exactly like the one-chunk case: bit-identical to a materialized Add
  // for backends whose post-training encode is per-row deterministic, and
  // chunk-size invariant for all of them.
  uint64_t salt = 0;
  for (const size_t n : {size_t{40}, size_t{70}}) {
    for (const size_t chunk : {size_t{16}, size_t{33}}) {
      Trial t;
      t.backend = GetParam();
      t.dim = 7;
      t.n = n;
      t.k = 5;
      t.threads = 0;
      t.seed = kSuiteSeed ^ 0xb0a2 ^ (salt++ * 0x9e3779b9ull);
      SCOPED_TRACE("boundary chunk=" + std::to_string(chunk) + " " +
                   t.Describe());
      const la::Matrix data = Clustered(t.n, t.dim, t.seed);
      const la::Matrix queries = Clustered(6, t.dim, t.seed ^ 0x9e37);
      const MatrixRowSource source(data);
      StreamOptions options;
      options.train_sample = 128;  // > n: identity sample, no reservoir
      options.chunk_rows = chunk;  // < n: several ingest chunks
      auto streamed = MakeBackend(t);
      streamed->AddStreamed(source, options);
      ASSERT_EQ(streamed->size(), t.n);
      const SearchBatch results = streamed->Search(queries, t.k);
      CheckContract(t, results, queries.rows());
      if (StreamedMatchesAdd(t.backend)) {
        auto materialized = MakeBackend(t);
        materialized->Add(data);
        ExpectBitIdentical(t, materialized->Search(queries, t.k), results);
      }
      // The boundary regime is also chunk-invariant against one big chunk.
      StreamOptions one_chunk = options;
      one_chunk.chunk_rows = t.n + 10;
      auto whole = MakeBackend(t);
      whole->AddStreamed(source, one_chunk);
      ExpectBitIdentical(t, results, whole->Search(queries, t.k));
    }
  }
}

TEST(SampleRowsTest, IdentityWhenSourceFits) {
  const la::Matrix data = Clustered(20, 5, 0x51);
  const MatrixRowSource source(data);
  const la::Matrix sample = SampleRows(source, 20, 97);
  ASSERT_EQ(sample.rows(), 20u);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(sample.data()[i], data.data()[i]);
  }
}

TEST(SampleRowsTest, ReservoirIsBoundedAndDeterministic) {
  const la::Matrix data = Clustered(500, 3, 0x52);
  const MatrixRowSource source(data);
  const la::Matrix a = SampleRows(source, 64, 97);
  const la::Matrix b = SampleRows(source, 64, 97);
  ASSERT_EQ(a.rows(), 64u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
  // Different seed, different picks (with overwhelming probability).
  const la::Matrix c = SampleRows(source, 64, 98);
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) any_diff |= a.data()[i] != c.data()[i];
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Incremental lifecycle: random interleavings of Add / Remove / Search /
// Compact per backend, mirrored onto a pooled copy. The model is the full
// append-order vector list (external id == append position — ids are never
// reused) plus a tombstone bitmap. Invariants per step: tombstoned ids never
// surface, returned ids stay in the assigned range, live accounting
// (size - dead_count) matches the model, and the pooled copy stays
// bit-identical. After the final Compact: dead_count == 0, stored size ==
// live count, and search quality matches a fresh build over the survivors —
// exactly for flat/matmul (modulo the stable id mapping), within the usual
// recall band for the quantized/graph backends.

void CheckLifecycleSearch(const Trial& t, const SearchBatch& results,
                          const std::vector<char>& dead, size_t assigned,
                          size_t live, size_t expect_queries) {
  ASSERT_EQ(results.size(), expect_queries) << t.Describe();
  for (size_t q = 0; q < results.size(); ++q) {
    const auto& neighbors = results[q];
    EXPECT_LE(neighbors.size(), std::min(t.k, live)) << t.Describe();
    if (IsExact(t.backend)) {
      EXPECT_EQ(neighbors.size(), std::min(t.k, live)) << t.Describe();
    }
    std::set<int> seen;
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const int id = neighbors[i].id;
      ASSERT_GE(id, 0) << t.Describe();
      ASSERT_LT(id, static_cast<int>(assigned)) << t.Describe();
      EXPECT_FALSE(dead[static_cast<size_t>(id)])
          << t.Describe() << " tombstoned id " << id << " surfaced";
      EXPECT_TRUE(seen.insert(id).second)
          << t.Describe() << " duplicate id " << id;
      if (i > 0) {
        EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance)
            << t.Describe() << " rank " << i;
      }
    }
  }
}

void RunLifecycleTrial(const Trial& t, bool compact_during_ops) {
  SCOPED_TRACE(std::string(compact_during_ops ? "compact " : "remove ") +
               t.Describe());
  util::Rng rng(t.seed);
  auto index = MakeBackend(t);
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<VectorIndex> threaded;
  if (t.threads > 0) {
    pool = std::make_unique<util::ThreadPool>(t.threads);
    threaded = MakeBackend(t);
    threaded->SetThreadPool(pool.get());
  }
  const la::Matrix queries = Clustered(4, t.dim, t.seed ^ 0x9e37);
  // One stationary pool feeds every Add: the trained backends quantize
  // against the initial sample, so the final compacted-vs-fresh quality
  // comparison is only apples-to-apples when later inserts come from the
  // same distribution (distribution drift is the Refresh path's job, pinned
  // by insert_drift()).
  const la::Matrix pool_rows = Clustered(600, t.dim, t.seed ^ 0x71);
  size_t next_pool_row = 0;

  std::vector<std::vector<float>> model;  // external id -> vector
  std::vector<char> dead;                 // external id -> tombstoned
  size_t live = 0;

  const auto add_batch = [&](size_t count) {
    ASSERT_LE(next_pool_row + count, pool_rows.rows());
    la::Matrix batch(count, t.dim);
    for (size_t i = 0; i < count; ++i) {
      const float* src = pool_rows.row(next_pool_row++);
      std::copy(src, src + t.dim, batch.row(i));
    }
    index->Add(batch);
    if (threaded != nullptr) threaded->Add(batch);
    for (size_t i = 0; i < batch.rows(); ++i) {
      model.emplace_back(batch.row(i), batch.row(i) + t.dim);
      dead.push_back(0);
      ++live;
    }
  };
  const auto check_search = [&] {
    const SearchBatch results = index->Search(queries, t.k);
    CheckLifecycleSearch(t, results, dead, model.size(), live, queries.rows());
    if (threaded != nullptr) {
      ExpectBitIdentical(t, results, threaded->Search(queries, t.k));
    }
  };

  // A solid initial build so the trained backends see a sane sample.
  add_batch(48 + rng.UniformInt(32));
  check_search();

  const size_t kOps = 60;
  for (size_t op = 0; op < kOps; ++op) {
    switch (rng.UniformInt(6)) {
      case 0:
      case 1:
        add_batch(1 + rng.UniformInt(8));
        break;
      case 2:
      case 3: {
        if (live == 0) break;
        // Pick a random live external id.
        size_t pick = rng.UniformInt(live);
        int id = -1;
        for (size_t i = 0; i < dead.size(); ++i) {
          if (!dead[i] && pick-- == 0) {
            id = static_cast<int>(i);
            break;
          }
        }
        ASSERT_GE(id, 0);
        index->Remove(id);
        if (threaded != nullptr) threaded->Remove(id);
        dead[static_cast<size_t>(id)] = 1;
        --live;
        EXPECT_TRUE(index->IsRemoved(id)) << t.Describe();
        index->Remove(id);  // idempotent
        EXPECT_EQ(index->dead_count(), index->size() - live) << t.Describe();
        break;
      }
      case 4:
        check_search();
        break;
      case 5:
        if (compact_during_ops) {
          if (rng.UniformInt(2) == 0) {
            index->Compact();
            if (threaded != nullptr) threaded->Compact();
            EXPECT_EQ(index->dead_count(), 0u) << t.Describe();
            EXPECT_EQ(index->size(), live) << t.Describe();
          } else {
            const bool did = index->MaybeCompact(0.25);
            if (threaded != nullptr) {
              EXPECT_EQ(threaded->MaybeCompact(0.25), did) << t.Describe();
            }
          }
        }
        break;
    }
    ASSERT_EQ(index->live_size(), live) << t.Describe();
    if (threaded != nullptr) {
      ASSERT_EQ(threaded->live_size(), live) << t.Describe();
    }
  }
  check_search();

  // Final compaction: tombstones drain, external ids survive, and — for
  // every backend but HNSW (whose graph is rebuilt, changing the beam's
  // exploration order) — search results are bit-identical before and after:
  // compaction only drops dead rows, never touches trained structure,
  // codes, or the live candidate set.
  const SearchBatch pre_compact = index->Search(queries, t.k);
  index->Compact();
  if (threaded != nullptr) threaded->Compact();
  EXPECT_EQ(index->dead_count(), 0u) << t.Describe();
  ASSERT_EQ(index->size(), live) << t.Describe();
  check_search();
  if (t.backend != IndexBackend::kHnsw) {
    ExpectBitIdentical(t, pre_compact, index->Search(queries, t.k));
  }

  std::vector<int> live_ids;
  la::Matrix survivors(live, t.dim);
  for (size_t i = 0; i < dead.size(); ++i) {
    if (dead[i]) continue;
    std::copy(model[i].begin(), model[i].end(),
              survivors.row(live_ids.size()));
    live_ids.push_back(static_cast<int>(i));
  }
  auto fresh = MakeBackend(t);
  fresh->Add(survivors);
  const SearchBatch compacted = index->Search(queries, t.k);
  const SearchBatch rebuilt = fresh->Search(queries, t.k);
  if (IsExact(t.backend)) {
    // Kept external ids are ascending, so the fresh build's (distance, row)
    // order equals the compacted index's (distance, external id) order.
    ASSERT_EQ(compacted.size(), rebuilt.size());
    for (size_t q = 0; q < compacted.size(); ++q) {
      ASSERT_EQ(compacted[q].size(), rebuilt[q].size()) << t.Describe();
      for (size_t i = 0; i < compacted[q].size(); ++i) {
        EXPECT_EQ(compacted[q][i].id,
                  live_ids[static_cast<size_t>(rebuilt[q][i].id)])
            << t.Describe();
        EXPECT_EQ(compacted[q][i].distance, rebuilt[q][i].distance)
            << t.Describe();
      }
    }
  } else if (t.backend == IndexBackend::kHnsw && live > 1 && t.k > 0) {
    // HNSW trains nothing, so the aged-then-compacted graph should match a
    // fresh build over the survivors to within beam noise. Quantized
    // backends (pq/sq/ivf*) are deliberately excluded here: their codebooks
    // were trained on the initial insert pool and can legitimately trail a
    // fresh-trained build — that staleness is insert_drift()/Refresh
    // territory, while compaction correctness is already pinned bit-exactly
    // by the pre/post-Compact comparison above.
    FlatIndex truth(t.dim);
    truth.Add(survivors);
    SearchBatch exact = truth.Search(queries, t.k);
    // Map truth/fresh row ids to external ids for recall comparison.
    for (auto& neighbors : exact) {
      for (auto& nb : neighbors) nb.id = live_ids[static_cast<size_t>(nb.id)];
    }
    SearchBatch rebuilt_mapped = rebuilt;
    for (auto& neighbors : rebuilt_mapped) {
      for (auto& nb : neighbors) nb.id = live_ids[static_cast<size_t>(nb.id)];
    }
    EXPECT_GE(Recall(exact, compacted), Recall(exact, rebuilt_mapped) - 0.25)
        << t.Describe();
  }
}

Trial SampleLifecycleTrial(IndexBackend backend, util::Rng& rng) {
  Trial t = SampleTrial(backend, rng);
  t.n = 0;     // rows come from the op stream, not a single build
  t.k = 1 + rng.UniformInt(8);
  return t;
}

class RemoveFuzz : public testing::TestWithParam<IndexBackend> {};

TEST_P(RemoveFuzz, TombstonedIdsNeverSurface) {
  util::Rng rng(kSuiteSeed ^
                (0x4000ull * (static_cast<uint64_t>(GetParam()) + 1)));
  for (size_t trial = 0; trial < kTrialsPerBackend; ++trial) {
    RunLifecycleTrial(SampleLifecycleTrial(GetParam(), rng),
                      /*compact_during_ops=*/false);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RemoveFuzz, testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

class CompactFuzz : public testing::TestWithParam<IndexBackend> {};

TEST_P(CompactFuzz, CompactionPreservesIdsAndQuality) {
  util::Rng rng(kSuiteSeed ^
                (0x5000ull * (static_cast<uint64_t>(GetParam()) + 1)));
  for (size_t trial = 0; trial < kTrialsPerBackend; ++trial) {
    RunLifecycleTrial(SampleLifecycleTrial(GetParam(), rng),
                      /*compact_during_ops=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CompactFuzz, testing::ValuesIn(core::AllIndexBackends()),
    [](const testing::TestParamInfo<IndexBackend>& info) {
      return core::IndexBackendName(info.param);
    });

// Sharded lifecycle: mutations route to the owning shard, the monotone id
// mapping survives shard-local compaction, and S=1 stays bit-identical to
// the unsharded backend through the whole Remove/Compact sequence.
TEST(ShardLifecycle, RemoveCompactRouteThroughShards) {
  for (const IndexBackend backend :
       {IndexBackend::kFlat, IndexBackend::kHnsw, IndexBackend::kPq}) {
    Trial t;
    t.backend = backend;
    t.dim = 7;
    t.n = 60;
    t.k = 6;
    t.threads = 2;
    t.seed = kSuiteSeed ^ (0x51ull + static_cast<uint64_t>(backend) * 977);
    SCOPED_TRACE("shard lifecycle " + t.Describe());
    const la::Matrix data = Clustered(t.n, t.dim, t.seed);
    const la::Matrix queries = Clustered(4, t.dim, t.seed ^ 0x9e37);

    util::ThreadPool pool(t.threads);
    auto sharded = MakeSharded(t, 3);
    sharded->SetThreadPool(&pool);
    sharded->Add(data);
    auto one = MakeSharded(t, 1);
    one->Add(data);
    auto unsharded = MakeBackend(t);
    unsharded->Add(data);

    util::Rng rng(t.seed ^ 0xdead);
    std::vector<char> dead(t.n, 0);
    size_t live = t.n;
    for (int round = 0; round < 20; ++round) {
      int id;
      do {
        id = static_cast<int>(rng.UniformInt(t.n));
      } while (dead[static_cast<size_t>(id)]);
      dead[static_cast<size_t>(id)] = 1;
      --live;
      sharded->Remove(id);
      one->Remove(id);
      unsharded->Remove(id);
      EXPECT_TRUE(sharded->IsRemoved(id));
      EXPECT_EQ(sharded->dead_count(), t.n - live);
    }
    const SearchBatch got = sharded->Search(queries, t.k);
    CheckLifecycleSearch(t, got, dead, t.n, live, queries.rows());
    ExpectBitIdentical(t, one->Search(queries, t.k),
                       unsharded->Search(queries, t.k));

    sharded->Compact();
    one->Compact();
    unsharded->Compact();
    EXPECT_EQ(sharded->dead_count(), 0u);
    EXPECT_EQ(sharded->size(), live);
    const SearchBatch after = sharded->Search(queries, t.k);
    CheckLifecycleSearch(t, after, dead, t.n, live, queries.rows());
    ExpectBitIdentical(t, one->Search(queries, t.k),
                       unsharded->Search(queries, t.k));
    if (IsExact(t.backend)) {
      ExpectBitIdentical(t, got, after);  // compaction never changes results
    }
  }
}

}  // namespace
}  // namespace dial::index
