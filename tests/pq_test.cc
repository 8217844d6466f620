#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "index/flat_index.h"
#include "index/ivfpq_index.h"
#include "index/pq.h"
#include "index/pq_index.h"
#include "index/sq_index.h"
#include "util/serialize.h"

namespace dial::index {
namespace {

la::Matrix RandomVectors(size_t n, size_t d, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m(n, d);
  m.RandNormal(rng, 1.0f);
  return m;
}

/// Vectors drawn from a few well-separated Gaussian blobs — the regime where
/// quantization codebooks capture most of the variance.
la::Matrix ClusteredVectors(size_t n, size_t d, size_t clusters, uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix centers(clusters, d);
  centers.RandNormal(rng, 10.0f);
  la::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = rng.UniformInt(clusters);
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = centers(c, j) + static_cast<float>(rng.Normal()) * 0.3f;
    }
  }
  return m;
}

double RecallVsFlat(const VectorIndex& index, const la::Matrix& data,
                    const la::Matrix& queries, size_t k) {
  FlatIndex flat(data.cols(), Metric::kL2);
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

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

/// The nearest-centroid rule Encode follows: per-centroid kernel distances
/// scanned with a strict < from +inf, so a NaN distance never wins.
std::vector<uint8_t> ReferenceCode(const ProductQuantizer& pq, const float* x) {
  const size_t dsub = pq.subspace_dim();
  std::vector<uint8_t> code(pq.code_size());
  for (size_t sub = 0; sub < pq.num_subspaces(); ++sub) {
    const la::Matrix& book = pq.codebook(sub);
    size_t best = 0;
    float best_d = std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < pq.codebook_size(); ++c) {
      const float d = la::SquaredDistance(x + sub * dsub, book.row(c), dsub);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    code[sub] = static_cast<uint8_t>(best);
  }
  return code;
}

/// Round-trips `pq`'s codebooks through SaveState/LoadState into `out`,
/// after `edit` has changed them on the way.
template <typename Edit>
void ReloadState(const ProductQuantizer& pq, ProductQuantizer& out, Edit edit) {
  const std::string path = testing::TempDir() + "/pq_state.bin";
  constexpr uint32_t kMagic = 0x50515354;  // "PQST"
  {
    util::BinaryWriter writer(path, kMagic, 1);
    writer.WriteU64(pq.codebook_size());
    for (size_t sub = 0; sub < pq.num_subspaces(); ++sub) {
      la::Matrix book = pq.codebook(sub);
      edit(sub, book);
      writer.WriteFloats(book.data(), book.size());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  util::BinaryReader reader(path, kMagic, 1);
  ASSERT_TRUE(reader.status().ok());
  ASSERT_TRUE(out.LoadState(reader).ok());
  std::remove(path.c_str());
}

TEST(ProductQuantizer, RequiresDivisibleDim) {
  ProductQuantizer::Options options;
  options.num_subspaces = 3;
  EXPECT_DEATH(ProductQuantizer(8, options), "divide");
}

TEST(ProductQuantizer, RejectsWideCodes) {
  ProductQuantizer::Options options;
  options.bits_per_code = 9;
  EXPECT_DEATH(ProductQuantizer(8, options), "bits_per_code");
}

TEST(ProductQuantizer, EncodeBeforeTrainDies) {
  ProductQuantizer pq(8, {});
  la::Matrix x(1, 8);
  uint8_t code[4];
  EXPECT_DEATH(pq.Encode(x.row(0), code), "Train");
}

TEST(ProductQuantizer, ExactOnCodebookSizedData) {
  // With as many centroids as distinct points, quantization is lossless.
  const la::Matrix data = RandomVectors(16, 8, 1);
  ProductQuantizer::Options options;
  options.num_subspaces = 2;
  options.bits_per_code = 4;  // 16 centroids
  options.train_iterations = 30;
  ProductQuantizer pq(8, options);
  pq.Train(data);
  EXPECT_LT(pq.QuantizationError(data), 1e-6);
}

TEST(ProductQuantizer, CodebookClipsToTrainingSize) {
  const la::Matrix data = RandomVectors(5, 8, 2);
  ProductQuantizer pq(8, {});  // default 2^6 = 64 centroids requested
  pq.Train(data);
  EXPECT_EQ(pq.codebook_size(), 5u);
  EXPECT_EQ(pq.codebook(0).rows(), 5u);
  EXPECT_EQ(pq.codebook(0).cols(), 2u);  // dim 8 / default 4 subspaces
}

TEST(ProductQuantizer, DecodeRoundTripIsIdempotent) {
  // decode(encode(x)) is a fixpoint: re-encoding the reconstruction yields
  // the same code (each subvector maps to its own nearest centroid).
  const la::Matrix data = RandomVectors(64, 8, 3);
  ProductQuantizer pq(8, {});
  pq.Train(data);
  const std::vector<uint8_t> codes = pq.EncodeBatch(data);
  const la::Matrix recon = pq.DecodeBatch(codes, data.rows());
  const std::vector<uint8_t> codes2 = pq.EncodeBatch(recon);
  EXPECT_EQ(codes, codes2);
}

TEST(ProductQuantizer, MoreBitsReduceError) {
  const la::Matrix data = ClusteredVectors(300, 8, 10, 4);
  double previous = -1.0;
  for (const size_t bits : {2u, 4u, 6u}) {
    ProductQuantizer::Options options;
    options.bits_per_code = bits;
    options.train_iterations = 20;
    ProductQuantizer pq(8, options);
    pq.Train(data);
    const double err = pq.QuantizationError(data);
    if (previous >= 0.0) {
      EXPECT_LT(err, previous) << "bits=" << bits;
    }
    previous = err;
  }
}

TEST(ProductQuantizer, MoreSubspacesReduceError) {
  const la::Matrix data = ClusteredVectors(300, 8, 10, 5);
  double previous = -1.0;
  for (const size_t m : {1u, 2u, 4u}) {
    ProductQuantizer::Options options;
    options.num_subspaces = m;
    options.bits_per_code = 4;
    options.train_iterations = 20;
    ProductQuantizer pq(8, options);
    pq.Train(data);
    const double err = pq.QuantizationError(data);
    if (previous >= 0.0) {
      EXPECT_LE(err, previous + 1e-5) << "m=" << m;
    }
    previous = err;
  }
}

TEST(ProductQuantizer, AdcEqualsDistanceToReconstruction) {
  // The ADC identity: table lookup == squared L2 to the decoded vector.
  const la::Matrix data = RandomVectors(60, 8, 6);
  const la::Matrix queries = RandomVectors(5, 8, 7);
  ProductQuantizer pq(8, {});
  pq.Train(data);
  const std::vector<uint8_t> codes = pq.EncodeBatch(data);
  const la::Matrix recon = pq.DecodeBatch(codes, data.rows());
  std::vector<float> table;
  for (size_t q = 0; q < queries.rows(); ++q) {
    pq.ComputeDistanceTable(queries.row(q), /*inner_product=*/false, table);
    for (size_t i = 0; i < data.rows(); ++i) {
      const float adc = pq.AdcDistance(table, codes.data() + i * pq.code_size());
      const float exact =
          la::SquaredDistance(queries.row(q), recon.row(i), 8);
      EXPECT_NEAR(adc, exact, 1e-3f);
    }
  }
}

TEST(ProductQuantizer, InnerProductTableMatchesReconstruction) {
  const la::Matrix data = RandomVectors(40, 8, 8);
  const la::Matrix queries = RandomVectors(4, 8, 9);
  ProductQuantizer pq(8, {});
  pq.Train(data);
  const std::vector<uint8_t> codes = pq.EncodeBatch(data);
  const la::Matrix recon = pq.DecodeBatch(codes, data.rows());
  std::vector<float> table;
  for (size_t q = 0; q < queries.rows(); ++q) {
    pq.ComputeDistanceTable(queries.row(q), /*inner_product=*/true, table);
    for (size_t i = 0; i < data.rows(); ++i) {
      const float adc = pq.AdcDistance(table, codes.data() + i * pq.code_size());
      EXPECT_NEAR(adc, -la::Dot(queries.row(q), recon.row(i), 8), 1e-3f);
    }
  }
}

TEST(ProductQuantizer, AdcDistanceMatchesNaiveReference) {
  // The block-unrolled ADC (4 subspace accumulators) against a plain
  // sequential table sum, over subspace counts that hit the unrolled body,
  // the tail, and tail-only shapes.
  for (const size_t m : {size_t{1}, size_t{2}, size_t{4}, size_t{6}, size_t{8}}) {
    const size_t dim = m * 2;
    ProductQuantizer::Options options;
    options.num_subspaces = m;
    const la::Matrix data = RandomVectors(60, dim, 11 + m);
    const la::Matrix queries = RandomVectors(4, dim, 23 + m);
    ProductQuantizer pq(dim, options);
    pq.Train(data);
    const std::vector<uint8_t> codes = pq.EncodeBatch(data);
    std::vector<float> table;
    for (size_t q = 0; q < queries.rows(); ++q) {
      pq.ComputeDistanceTable(queries.row(q), /*inner_product=*/false, table);
      for (size_t i = 0; i < data.rows(); ++i) {
        const uint8_t* code = codes.data() + i * pq.code_size();
        float naive = 0.0f;
        for (size_t sub = 0; sub < m; ++sub) {
          naive += table[sub * pq.codebook_size() + code[sub]];
        }
        // Reassociated accumulation: near, not bitwise, vs the serial sum.
        EXPECT_NEAR(pq.AdcDistance(table, code), naive,
                    1e-4f * std::max(1.0f, std::fabs(naive)))
            << "m=" << m << " q=" << q << " i=" << i;
      }
    }
  }
}

TEST(ProductQuantizer, AdcDistanceBatchBitIdenticalToScalar) {
  // The batch scan shares the scalar entry point's accumulator routine, so
  // batch == per-code calls bit for bit (the la/kernels batch contract).
  for (const size_t m : {size_t{3}, size_t{4}, size_t{8}}) {
    const size_t dim = m * 3;
    ProductQuantizer::Options options;
    options.num_subspaces = m;
    const la::Matrix data = RandomVectors(50, dim, 31 + m);
    const la::Matrix queries = RandomVectors(3, dim, 47 + m);
    ProductQuantizer pq(dim, options);
    pq.Train(data);
    const std::vector<uint8_t> codes = pq.EncodeBatch(data);
    std::vector<float> table;
    std::vector<float> batch(data.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      pq.ComputeDistanceTable(queries.row(q), /*inner_product=*/false, table);
      pq.AdcDistanceBatch(table, codes.data(), data.rows(), batch.data());
      for (size_t i = 0; i < data.rows(); ++i) {
        EXPECT_EQ(batch[i],
                  pq.AdcDistance(table, codes.data() + i * pq.code_size()))
            << "m=" << m << " q=" << q << " i=" << i;
      }
    }
    // Empty scan is a no-op.
    pq.AdcDistanceBatch(table, codes.data(), 0, batch.data());
  }
}

TEST(ProductQuantizer, DistanceTableBitIdenticalToPerCentroidKernel) {
  // One batch scan per subspace fills the table; every entry must carry the
  // per-centroid kernel's bits. 64 centroids are four 16-row groups, at
  // subspace widths below, at and above 16.
  for (const size_t dsub : {size_t{3}, size_t{8}, size_t{16}, size_t{19}}) {
    const size_t dim = 4 * dsub;
    const la::Matrix data = RandomVectors(200, dim, 61 + dsub);
    const la::Matrix queries = RandomVectors(3, dim, 67 + dsub);
    ProductQuantizer pq(dim, {});
    pq.Train(data);
    ASSERT_EQ(pq.codebook_size(), 64u);
    std::vector<float> table;
    for (size_t q = 0; q < queries.rows(); ++q) {
      for (const bool ip : {false, true}) {
        pq.ComputeDistanceTable(queries.row(q), ip, table);
        for (size_t sub = 0; sub < pq.num_subspaces(); ++sub) {
          const float* x = queries.row(q) + sub * dsub;
          for (size_t c = 0; c < pq.codebook_size(); ++c) {
            const float* centroid = pq.codebook(sub).row(c);
            const float want = ip ? -la::Dot(x, centroid, dsub)
                                  : la::SquaredDistance(x, centroid, dsub);
            EXPECT_TRUE(SameBits(table[sub * pq.codebook_size() + c], want))
                << "dsub=" << dsub << " ip=" << ip << " sub=" << sub
                << " c=" << c;
          }
        }
      }
    }
  }
}

TEST(ProductQuantizer, EncodeMatchesScalarNearestCentroid) {
  const size_t dim = 32;  // four subspaces of 8
  const la::Matrix data = RandomVectors(300, dim, 71);
  ProductQuantizer pq(dim, {});
  pq.Train(data);
  const std::vector<uint8_t> codes = pq.EncodeBatch(data);
  for (size_t i = 0; i < data.rows(); ++i) {
    const std::vector<uint8_t> got(codes.begin() + i * pq.code_size(),
                                   codes.begin() + (i + 1) * pq.code_size());
    EXPECT_EQ(got, ReferenceCode(pq, data.row(i))) << "row " << i;
  }
  // A NaN in centroid 0 of subspace 0 makes every first distance there NaN.
  // kernels::ArgMin would keep index 0; Encode picks the nearest finite one.
  ProductQuantizer nan_pq(dim, {});
  ReloadState(pq, nan_pq, [](size_t sub, la::Matrix& book) {
    if (sub == 0) book(0, 0) = std::numeric_limits<float>::quiet_NaN();
  });
  std::vector<uint8_t> code(nan_pq.code_size());
  for (size_t i = 0; i < 50; ++i) {
    nan_pq.Encode(data.row(i), code.data());
    EXPECT_EQ(code, ReferenceCode(nan_pq, data.row(i))) << "row " << i;
    EXPECT_NE(code[0], 0u) << "row " << i;
  }
}

TEST(ProductQuantizer, SdcTablesAfterLoadStateMatchTrain) {
  // Codes that differ in one subspace and hold centroid 0 in the other read
  // one table entry plus an exact 0, so every entry of both tables is
  // pinned: equal to the per-centroid kernel after Train and after LoadState.
  const size_t dim = 16;
  ProductQuantizer::Options options;
  options.num_subspaces = 2;
  const la::Matrix data = RandomVectors(200, dim, 73);
  ProductQuantizer trained(dim, options);
  trained.Train(data);
  ProductQuantizer loaded(dim, options);
  ReloadState(trained, loaded, [](size_t, la::Matrix&) {});
  ASSERT_EQ(loaded.codebook_size(), trained.codebook_size());
  for (size_t sub = 0; sub < 2; ++sub) {
    const la::Matrix& book = trained.codebook(sub);
    for (size_t a = 0; a < trained.codebook_size(); ++a) {
      for (size_t b = 0; b < trained.codebook_size(); ++b) {
        uint8_t ca[2] = {0, 0};
        uint8_t cb[2] = {0, 0};
        ca[sub] = static_cast<uint8_t>(a);
        cb[sub] = static_cast<uint8_t>(b);
        const float want = la::SquaredDistance(book.row(a), book.row(b), 8);
        EXPECT_TRUE(SameBits(trained.SymmetricDistance(ca, cb), want))
            << "train sub=" << sub << " a=" << a << " b=" << b;
        EXPECT_TRUE(SameBits(loaded.SymmetricDistance(ca, cb), want))
            << "load sub=" << sub << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(ProductQuantizer, SymmetricDistanceProperties) {
  const la::Matrix data = RandomVectors(50, 8, 10);
  ProductQuantizer pq(8, {});
  pq.Train(data);
  const std::vector<uint8_t> codes = pq.EncodeBatch(data);
  const size_t cs = pq.code_size();
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      const float dij = pq.SymmetricDistance(codes.data() + i * cs, codes.data() + j * cs);
      const float dji = pq.SymmetricDistance(codes.data() + j * cs, codes.data() + i * cs);
      EXPECT_FLOAT_EQ(dij, dji);
      EXPECT_GE(dij, 0.0f);
    }
    EXPECT_FLOAT_EQ(
        pq.SymmetricDistance(codes.data() + i * cs, codes.data() + i * cs), 0.0f);
  }
}

TEST(PqIndex, RejectsCosine) {
  EXPECT_DEATH(PqIndex(8, Metric::kCosine, {}), "inner product");
}

TEST(PqIndex, EmptySearch) {
  PqIndex index(8, Metric::kL2, {});
  const la::Matrix queries = RandomVectors(3, 8, 11);
  const SearchBatch results = index.Search(queries, 5);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.empty());
}

TEST(PqIndex, KLargerThanSize) {
  PqIndex index(8, Metric::kL2, {});
  index.Add(RandomVectors(4, 8, 12));
  const auto results = index.Search(RandomVectors(1, 8, 13), 10);
  EXPECT_EQ(results[0].size(), 4u);
}

TEST(PqIndex, HighRecallOnClusteredData) {
  const la::Matrix data = ClusteredVectors(400, 16, 8, 14);
  const la::Matrix queries = ClusteredVectors(40, 16, 8, 15);
  ProductQuantizer::Options options;
  options.num_subspaces = 4;
  options.bits_per_code = 6;
  PqIndex index(16, Metric::kL2, options);
  index.Add(data);
  EXPECT_GT(RecallVsFlat(index, data, queries, 10), 0.6);
}

TEST(PqIndex, CompressionIsEightBytesPerVector) {
  ProductQuantizer::Options options;
  options.num_subspaces = 8;
  PqIndex index(32, Metric::kL2, options);
  index.Add(RandomVectors(100, 32, 16));
  EXPECT_EQ(index.code_bytes(), 800u);  // vs 100 * 32 * 4 = 12800 raw
  EXPECT_EQ(index.size(), 100u);
}

TEST(PqIndex, IncrementalAddReusesCodebooks) {
  const la::Matrix a = RandomVectors(80, 8, 17);
  const la::Matrix b = RandomVectors(20, 8, 18);
  PqIndex index(8, Metric::kL2, {});
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 100u);
  // Second-batch vectors are retrievable near their own quantization cell.
  la::Matrix query(1, 8);
  std::copy(b.row(3), b.row(3) + 8, query.row(0));
  const auto results = index.Search(query, 5);
  EXPECT_EQ(results[0].size(), 5u);
  for (const Neighbor& nb : results[0]) {
    EXPECT_GE(nb.id, 0);
    EXPECT_LT(nb.id, 100);
  }
}

TEST(PqIndex, ResultsSortedAscending) {
  PqIndex index(8, Metric::kL2, {});
  index.Add(RandomVectors(50, 8, 19));
  for (const auto& neighbors : index.Search(RandomVectors(6, 8, 20), 8)) {
    for (size_t i = 1; i < neighbors.size(); ++i) {
      EXPECT_LE(neighbors[i - 1].distance, neighbors[i].distance);
    }
  }
}

TEST(IvfPqIndex, RejectsNonL2) {
  EXPECT_DEATH(IvfPqIndex(8, Metric::kInnerProduct, {}), "L2");
}

TEST(IvfPqIndex, EmptySearch) {
  IvfPqIndex index(8, Metric::kL2, {});
  const auto results = index.Search(RandomVectors(2, 8, 21), 3);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
}

TEST(IvfPqIndex, RecallImprovesWithNprobe) {
  const la::Matrix data = ClusteredVectors(500, 16, 12, 22);
  const la::Matrix queries = ClusteredVectors(50, 16, 12, 23);
  auto recall_at = [&](size_t nprobe) {
    IvfPqIndex::Options options;
    options.nlist = 12;
    options.nprobe = nprobe;
    options.pq.num_subspaces = 4;
    IvfPqIndex index(16, Metric::kL2, options);
    index.Add(data);
    return RecallVsFlat(index, data, queries, 10);
  };
  const double r1 = recall_at(1);
  const double r12 = recall_at(12);
  EXPECT_GT(r12, 0.5);
  EXPECT_GE(r12, r1);
}

TEST(IvfPqIndex, IncrementalAdd) {
  const la::Matrix a = ClusteredVectors(200, 8, 6, 24);
  const la::Matrix b = ClusteredVectors(40, 8, 6, 25);
  IvfPqIndex::Options options;
  options.pq.num_subspaces = 2;
  IvfPqIndex index(8, Metric::kL2, options);
  index.Add(a);
  index.Add(b);
  EXPECT_EQ(index.size(), 240u);
  for (const auto& neighbors : index.Search(RandomVectors(5, 8, 26), 4)) {
    for (const Neighbor& nb : neighbors) {
      EXPECT_GE(nb.id, 0);
      EXPECT_LT(nb.id, 240);
    }
  }
}

TEST(IvfPqIndex, ResidualQuantizationBeatsPlainPqOnSpreadClusters) {
  // Residuals concentrate around 0 regardless of which blob a vector sits
  // in, so IVFPQ's codebooks model far less variance than plain PQ's.
  const la::Matrix data = ClusteredVectors(600, 16, 16, 27);
  const la::Matrix queries = ClusteredVectors(60, 16, 16, 28);
  ProductQuantizer::Options pq_options;
  pq_options.num_subspaces = 2;
  pq_options.bits_per_code = 4;
  PqIndex pq(16, Metric::kL2, pq_options);
  pq.Add(data);
  IvfPqIndex::Options ivf_options;
  ivf_options.nlist = 16;
  ivf_options.nprobe = 16;  // exhaustive probing isolates quantization error
  ivf_options.pq = pq_options;
  IvfPqIndex ivfpq(16, Metric::kL2, ivf_options);
  ivfpq.Add(data);
  EXPECT_GE(RecallVsFlat(ivfpq, data, queries, 10) + 0.05,
            RecallVsFlat(pq, data, queries, 10));
}

// ------------------------------------------------------ scalar quantizer

TEST(SqIndex, RejectsCosine) {
  EXPECT_DEATH(SqIndex(8, Metric::kCosine), "inner product");
}

TEST(SqIndex, EmptySearch) {
  SqIndex index(8, Metric::kL2);
  const auto results = index.Search(RandomVectors(2, 8, 40), 3);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].empty());
}

TEST(SqIndex, QuantizationErrorBoundedByStepSize) {
  // Linear 8-bit quantization: per-dimension error <= step/2, so the total
  // squared error is <= dim * (range/256/2)^2 on training data.
  const la::Matrix data = RandomVectors(200, 8, 41);
  SqIndex index(8, Metric::kL2);
  index.Add(data);
  float max_range = 0.0f;
  for (size_t d = 0; d < 8; ++d) {
    float lo = data(0, d), hi = data(0, d);
    for (size_t i = 1; i < data.rows(); ++i) {
      lo = std::min(lo, data(i, d));
      hi = std::max(hi, data(i, d));
    }
    max_range = std::max(max_range, hi - lo);
  }
  const double step = max_range / 256.0;
  EXPECT_LE(index.QuantizationError(data), 8.0 * (step / 2) * (step / 2) + 1e-9);
}

TEST(SqIndex, NearExactRecall) {
  // 8 bits per dimension is gentle: recall vs flat should be ~1 on random
  // data (quantization error is tiny relative to inter-point distances).
  const la::Matrix data = RandomVectors(300, 16, 42);
  const la::Matrix queries = RandomVectors(30, 16, 43);
  SqIndex index(16, Metric::kL2);
  index.Add(data);
  EXPECT_GT(RecallVsFlat(index, data, queries, 10), 0.95);
}

TEST(SqIndex, FourfoldCompression) {
  SqIndex index(32, Metric::kL2);
  index.Add(RandomVectors(100, 32, 44));
  EXPECT_EQ(index.code_bytes(), 3200u);  // vs 12800 raw float bytes
}

TEST(SqIndex, IncrementalAddClampsToTrainedRange) {
  const la::Matrix a = RandomVectors(50, 4, 45);
  la::Matrix outlier(1, 4, 1000.0f);  // far outside trained range: clamped
  SqIndex index(4, Metric::kL2);
  index.Add(a);
  index.Add(outlier);
  EXPECT_EQ(index.size(), 51u);
  // The clamped outlier still ranks far from an in-range query's neighbours.
  const auto results = index.Search(RandomVectors(1, 4, 46), 51);
  ASSERT_EQ(results[0].size(), 51u);
  EXPECT_EQ(results[0].back().id, 50);
}

TEST(SqIndex, InnerProductMatchesDequantizedScores) {
  const la::Matrix data = RandomVectors(60, 8, 47);
  const la::Matrix queries = RandomVectors(5, 8, 48);
  SqIndex sq(8, Metric::kInnerProduct);
  sq.Add(data);
  FlatIndex flat(8, Metric::kInnerProduct);
  flat.Add(data);
  // Rankings agree on the top hit almost always at 8-bit precision.
  const auto a = sq.Search(queries, 1);
  const auto b = flat.Search(queries, 1);
  size_t agree = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    agree += a[q][0].id == b[q][0].id ? 1 : 0;
  }
  EXPECT_GE(agree, 4u);
}

class PqBitsSweep : public testing::TestWithParam<size_t> {};

TEST_P(PqBitsSweep, RecallGrowsWithBits) {
  const size_t bits = GetParam();
  const la::Matrix data = ClusteredVectors(300, 16, 8, 29);
  const la::Matrix queries = ClusteredVectors(30, 16, 8, 30);
  ProductQuantizer::Options options;
  options.num_subspaces = 4;
  options.bits_per_code = bits;
  PqIndex index(16, Metric::kL2, options);
  index.Add(data);
  const double recall = RecallVsFlat(index, data, queries, 10);
  // Minimum acceptable recall grows with the code budget.
  const double floor = bits >= 6 ? 0.55 : bits >= 4 ? 0.35 : 0.1;
  EXPECT_GT(recall, floor) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, PqBitsSweep, testing::Values(2, 4, 6, 8));

}  // namespace
}  // namespace dial::index
