#include "la/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/tape.h"
#include "la/arch.h"
#include "la/matrix.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dial::la {
namespace {

// ---------------------------------------------------------------------------
// Naive references: the pre-refactor scalar semantics the tiled kernels
// must reproduce (within reassociation tolerance).
// ---------------------------------------------------------------------------

Matrix NaiveGemmNN(const Matrix& a, const Matrix& b, Matrix out) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t p = 0; p < a.cols(); ++p) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(i, p) * b(p, j);
      }
    }
  }
  return out;
}

Matrix NaiveGemmTN(const Matrix& a, const Matrix& b, Matrix out) {
  // out(m,n) += a(k,m)^T b(k,n)
  for (size_t p = 0; p < a.rows(); ++p) {
    for (size_t i = 0; i < a.cols(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(p, i) * b(p, j);
      }
    }
  }
  return out;
}

Matrix NaiveGemmNT(const Matrix& a, const Matrix& b, Matrix out) {
  // out(m,n) += a(m,k) b(n,k)^T
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      for (size_t p = 0; p < a.cols(); ++p) {
        out(i, j) += a(i, p) * b(j, p);
      }
    }
  }
  return out;
}

float NaiveDot(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float NaiveSquaredDistance(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void ExpectNear(const Matrix& got, const Matrix& want, float tol) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], tol) << "at flat index " << i;
  }
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "at flat index " << i;
  }
}

Matrix Random(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(rows, cols);
  m.RandNormal(rng, 1.0f);
  return m;
}

// Shapes stress the unrolled tails (dims % 4 != 0), the 4-row tiles and
// 16-column blocks, NT's column blocks and 16-lane chains, single rows/cols,
// and empty inputs. The last two lie above util::kMinParallelWork, so the
// pooled tests really hand their rows to the workers.
class KernelShapes : public testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(Shapes, KernelShapes,
                         testing::Values(std::make_tuple(1, 1, 1),
                                         std::make_tuple(2, 3, 4),
                                         std::make_tuple(5, 1, 7),
                                         std::make_tuple(13, 7, 11),
                                         std::make_tuple(17, 33, 5),
                                         std::make_tuple(64, 64, 64),
                                         std::make_tuple(33, 70, 65),
                                         std::make_tuple(70, 129, 66),
                                         std::make_tuple(0, 3, 4),
                                         std::make_tuple(3, 0, 4),
                                         std::make_tuple(3, 4, 0),
                                         std::make_tuple(130, 257, 129),
                                         std::make_tuple(4096, 32, 32)));

TEST_P(KernelShapes, GemmNNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = Random(m, k, 11 + m);
  const Matrix b = Random(k, n, 13 + n);
  Matrix init = Random(m, n, 17 + k);  // accumulate into non-zero out
  Matrix out = init;
  kernels::GemmNN(m, n, k, a.data(), b.data(), out.data());
  ExpectNear(out, NaiveGemmNN(a, b, init), 1e-4f * std::max<size_t>(1, k));
}

TEST_P(KernelShapes, GemmTNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = Random(k, m, 19 + m);
  const Matrix b = Random(k, n, 23 + n);
  Matrix init = Random(m, n, 29 + k);
  Matrix out = init;
  kernels::GemmTN(m, n, k, a.data(), b.data(), out.data());
  ExpectNear(out, NaiveGemmTN(a, b, init), 1e-4f * std::max<size_t>(1, k));
}

TEST_P(KernelShapes, GemmNTMatchesNaive) {
  const auto [m, k, n] = GetParam();
  const Matrix a = Random(m, k, 31 + m);
  const Matrix b = Random(n, k, 37 + n);
  Matrix init = Random(m, n, 41 + k);
  Matrix out = init;
  kernels::GemmNT(m, n, k, a.data(), b.data(), out.data());
  ExpectNear(out, NaiveGemmNT(a, b, init), 1e-4f * std::max<size_t>(1, k));
}

TEST_P(KernelShapes, PooledGemmIsBitIdenticalAcrossThreadCounts) {
  const auto [m, k, n] = GetParam();
  const Matrix a = Random(m, k, 43 + m);
  const Matrix b = Random(k, n, 47 + n);
  const Matrix bt = Random(n, k, 53 + n);
  const Matrix at = Random(k, m, 59 + m);

  Matrix inline_nn(m, n, 0.0f), inline_tn(m, n, 0.0f), inline_nt(m, n, 0.0f);
  kernels::GemmNN(m, n, k, a.data(), b.data(), inline_nn.data());
  kernels::GemmTN(m, n, k, at.data(), b.data(), inline_tn.data());
  kernels::GemmNT(m, n, k, a.data(), bt.data(), inline_nt.data());

  for (const size_t workers : {1u, 2u, 8u}) {
    util::ThreadPool pool(workers);
    Matrix nn(m, n, 0.0f), tn(m, n, 0.0f), nt(m, n, 0.0f);
    kernels::GemmNN(m, n, k, a.data(), b.data(), nn.data(), &pool);
    kernels::GemmTN(m, n, k, at.data(), b.data(), tn.data(), &pool);
    kernels::GemmNT(m, n, k, a.data(), bt.data(), nt.data(), &pool);
    ExpectBitIdentical(nn, inline_nn);
    ExpectBitIdentical(tn, inline_tn);
    ExpectBitIdentical(nt, inline_nt);
    // Only multi-row GEMMs at or above the work cutoff reach the workers.
    const bool pooled = workers > 1 && m > 1 &&
                        static_cast<size_t>(m) * n * k >= util::kMinParallelWork;
    EXPECT_EQ(pool.tasks_submitted() > 0, pooled) << workers << " workers";
  }
}

// Uniform values in [-1, 1), about one in six of them +0 or -0.
std::vector<float> SweepValues(util::Rng& rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) {
    const uint64_t r = rng.UniformInt(12);
    x = r == 0 ? 0.0f : r == 1 ? -0.0f : rng.UniformFloat(-1.0f, 1.0f);
  }
  return v;
}

// Every m, n and k around the GEMM tiles' edges: 4-row tiles, 16-, 8- and
// 1-column blocks, 4-step k groups, NT's 8-column blocks and 16-lane
// chains. Each layout runs on every tier, inline and through a pool, and
// must match the scalar tier byte for byte. The scalar outputs hash to a
// pinned value, so a change to the accumulation contract fails here even
// when every tier changes alike.
TEST(GemmTileEdges, EveryTierMatchesPinnedScalarBitsInlineAndPooled) {
  using Gemm = void (*)(size_t, size_t, size_t, const float*, const float*,
                        float*, util::ThreadPool*);
  const std::pair<const char*, Gemm> layouts[] = {
      {"nn", &kernels::GemmNN}, {"tn", &kernels::GemmTN},
      {"nt", &kernels::GemmNT}};
  std::vector<std::tuple<size_t, size_t, size_t>> shapes;
  for (const size_t m : {1u, 2u, 3u, 4u, 5u, 8u, 9u, 33u}) {
    for (const size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 65u}) {
      for (const size_t k :
           {1u, 3u, 4u, 5u, 8u, 15u, 16u, 17u, 32u, 33u, 64u, 65u, 257u}) {
        shapes.emplace_back(m, n, k);
      }
    }
  }
  // One shape at or above util::kMinParallelWork, so the pool splits rows.
  constexpr size_t kPooledM = 503, kPooledN = 65, kPooledK = 65;
  static_assert(kPooledM * kPooledN * kPooledK >= util::kMinParallelWork);
  shapes.emplace_back(kPooledM, kPooledN, kPooledK);

  struct RestoreTier {
    ~RestoreTier() { arch::ResetTierFromEnv(); }
  } restore;
  util::ThreadPool pool(3);
  uint64_t hash = util::kFnvOffset;
  for (const auto& [m, n, k] : shapes) {
    // a is (m,k) for NN and NT and (k,m) for TN; b is (k,n) for NN and TN
    // and (n,k) for NT.
    util::Rng rng(m * 1000003 + n * 1009 + k);
    const std::vector<float> a = SweepValues(rng, m * k);
    const std::vector<float> b = SweepValues(rng, k * n);
    const std::vector<float> init = SweepValues(rng, m * n);
    const size_t bytes = m * n * sizeof(float);
    for (const auto& [name, gemm] : layouts) {
      ASSERT_EQ(arch::SetTier(arch::Tier::kScalar), arch::Tier::kScalar);
      std::vector<float> want = init;
      gemm(m, n, k, a.data(), b.data(), want.data(), nullptr);
      hash = util::Fnv1a(
          std::string_view(reinterpret_cast<const char*>(want.data()), bytes),
          hash);
      for (const arch::Tier tier : arch::SupportedTiers()) {
        ASSERT_EQ(arch::SetTier(tier), tier);
        for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
          const size_t submitted = pool.tasks_submitted();
          std::vector<float> got = init;
          gemm(m, n, k, a.data(), b.data(), got.data(), p);
          ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
              << name << " " << arch::TierName(tier)
              << (p != nullptr ? " pooled" : " inline") << " m=" << m
              << " n=" << n << " k=" << k;
          if (p != nullptr && m == kPooledM) {
            EXPECT_GT(pool.tasks_submitted(), submitted)
                << name << " " << arch::TierName(tier);
          }
        }
      }
    }
  }
  EXPECT_EQ(util::HexDigest(hash), "86ecd9f86a7d44ed");
}

TEST_P(KernelShapes, TransposeBlockedMatchesElementwise) {
  const auto [m, k, n] = GetParam();
  (void)k;
  const Matrix a = Random(m, n, 61 + m);
  const Matrix t = Transpose(a);
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(t(c, r), a(r, c));
    }
  }
}

// Row-reduction kernels: correct vs naive and, critically, batch entry
// points bit-identical to the scalar kernel per row (the index backends'
// exact scans and tests rely on this).
TEST(RowKernels, DotAndSquaredDistanceMatchNaive) {
  for (const size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 129u}) {
    const Matrix a = Random(1, n, 71 + n);
    const Matrix b = Random(1, n, 73 + n);
    EXPECT_NEAR(kernels::Dot(a.data(), b.data(), n),
                NaiveDot(a.data(), b.data(), n), 1e-4f * std::max<size_t>(1, n));
    EXPECT_NEAR(kernels::SquaredDistance(a.data(), b.data(), n),
                NaiveSquaredDistance(a.data(), b.data(), n),
                1e-4f * std::max<size_t>(1, n));
  }
}

TEST(RowKernels, BatchEntryPointsAreBitIdenticalToScalar) {
  // Row counts around the AVX-512 16-row groups, every d < 16 (the gathered
  // narrow path) and dims around the 16-lane chunks, so every mix of full
  // groups, leftover rows and dim tails runs. Planted ±0, subnormals, ±inf
  // and NaN must come out with the same bits too. The planted NaN is the
  // one inf - inf makes at run time, the same one inf - inf and 0 * inf
  // make inside the kernels, so a result never holds two NaN payloads:
  // which of two payloads an add returns depends on the operand order the
  // compiler picks, which can differ between two inlined copies of one
  // routine.
  const float inf = std::numeric_limits<float>::infinity();
  volatile float runtime_inf = inf;
  const float nan = runtime_inf - runtime_inf;
  const float specials[] = {0.0f, -0.0f, 1e-40f, -3e-39f, inf, -inf, nan};
  std::vector<size_t> dims;
  for (size_t d = 1; d < 16; ++d) dims.push_back(d);
  for (const size_t d : {16u, 17u, 32u, 33u, 64u}) dims.push_back(d);
  for (const size_t n : {0u, 1u, 15u, 16u, 17u, 32u, 33u, 257u}) {
    for (const size_t d : dims) {
      Matrix base = Random(std::max<size_t>(n, 1), d, 79 + n * 7 + d);
      Matrix q = Random(1, d, 83 + d);
      util::Rng rng(n * 131 + d);
      // Every third row carries specials; the rest stay finite.
      for (size_t t = 0; t < n * d / 8; ++t) {
        const size_t row = 3 * rng.UniformInt((n + 2) / 3);
        base(row, rng.UniformInt(d)) = specials[rng.UniformInt(7)];
      }
      q.data()[rng.UniformInt(d)] = specials[rng.UniformInt(7)];
      std::vector<float> dots(n), dists(n), norms(n);
      std::vector<float> want_dots(n), want_dists(n), want_norms(n);
      kernels::DotBatch(q.data(), base.data(), n, d, dots.data());
      kernels::SquaredDistanceBatch(q.data(), base.data(), n, d, dists.data());
      kernels::NormsSquared(base.data(), n, d, norms.data());
      for (size_t i = 0; i < n; ++i) {
        want_dots[i] = kernels::Dot(q.data(), base.row(i), d);
        want_dists[i] = kernels::SquaredDistance(q.data(), base.row(i), d);
        want_norms[i] = kernels::Dot(base.row(i), base.row(i), d);
      }
      // memcmp, not float ==: NaN payloads must match too. (An empty
      // vector's data() may be null, which memcmp must not receive.)
      const auto same_bits = [n](const std::vector<float>& a,
                                 const std::vector<float>& b) {
        return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0;
      };
      EXPECT_TRUE(same_bits(dots, want_dots)) << "dot n=" << n << " d=" << d;
      EXPECT_TRUE(same_bits(dists, want_dists)) << "sqdist n=" << n << " d=" << d;
      EXPECT_TRUE(same_bits(norms, want_norms)) << "norms n=" << n << " d=" << d;
    }
  }
}

TEST(RowKernels, ExpandedSquaredDistanceMatchesDirectAndClamps) {
  const size_t n = 23, d = 17;
  const Matrix base = Random(n, d, 89);
  const Matrix q = Random(1, d, 97);
  std::vector<float> base_sq(n), dots(n), direct(n), expanded(n);
  kernels::NormsSquared(base.data(), n, d, base_sq.data());
  kernels::DotBatch(q.data(), base.data(), n, d, dots.data());
  const float q_sq = kernels::Dot(q.data(), q.data(), d);
  kernels::SquaredDistanceBatch(q.data(), base.data(), n, d, direct.data());
  kernels::SquaredDistanceFromDots(q_sq, dots.data(), base_sq.data(), n,
                                   expanded.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(expanded[i], 0.0f);
    EXPECT_NEAR(expanded[i], direct[i], 1e-3f * std::max(1.0f, direct[i]));
  }
  // Identical points: cancellation must clamp to exactly zero, never NaN or
  // a negative distance.
  std::vector<float> self_dots(n), self(n);
  kernels::DotBatch(base.row(0), base.data(), n, d, self_dots.data());
  kernels::SquaredDistanceFromDots(base_sq[0], self_dots.data(),
                                   base_sq.data(), n, self.data());
  EXPECT_EQ(self[0], 0.0f);
}

TEST(RowKernels, ArgMinArgMaxFirstIndexWinsTies) {
  const float v[] = {3.0f, 1.0f, 1.0f, 5.0f, 5.0f};
  EXPECT_EQ(kernels::ArgMin(v, 5), 1u);
  EXPECT_EQ(kernels::ArgMax(v, 5), 3u);
  EXPECT_EQ(kernels::ArgMin(v, 1), 0u);
  EXPECT_EQ(kernels::ArgMax(v, 1), 0u);
  // -0 and +0 compare equal, so the first of them wins either way round.
  const float zeros[] = {1.0f, -0.0f, 0.0f, -0.0f};
  EXPECT_EQ(kernels::ArgMin(zeros, 4), 1u);
  const float zeros_rev[] = {-1.0f, 0.0f, -0.0f, 0.0f};
  EXPECT_EQ(kernels::ArgMax(zeros_rev, 4), 1u);
  // A NaN v[0] is never beaten; a NaN anywhere else is never picked.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float nan_first[] = {nan, -2.0f, 7.0f};
  EXPECT_EQ(kernels::ArgMin(nan_first, 3), 0u);
  EXPECT_EQ(kernels::ArgMax(nan_first, 3), 0u);
  const float nan_inside[] = {4.0f, nan, -2.0f, nan, 9.0f};
  EXPECT_EQ(kernels::ArgMin(nan_inside, 5), 2u);
  EXPECT_EQ(kernels::ArgMax(nan_inside, 5), 4u);
  // All +inf: index 0, for both.
  const float inf = std::numeric_limits<float>::infinity();
  const float all_inf[] = {inf, inf, inf};
  EXPECT_EQ(kernels::ArgMin(all_inf, 3), 0u);
  EXPECT_EQ(kernels::ArgMax(all_inf, 3), 0u);
}

TEST(MatrixStorage, IsCacheLineAligned) {
  for (const size_t rows : {1u, 3u, 17u}) {
    for (const size_t cols : {1u, 5u, 64u}) {
      Matrix m(rows, cols);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % kMatrixAlignment,
                0u)
          << rows << "x" << cols;
    }
  }
  Matrix lit({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lit.data()) % kMatrixAlignment, 0u);
}

// Matrix-level pooled entry points: same results with and without a pool.
// 33x65x17 stays below util::kMinParallelWork (inline even with the pool);
// 130x257x129 lies above it and runs on the workers.
TEST(MatrixPooled, MatMulVariantsBitIdenticalWithPool) {
  for (const auto& [m, k, n] : {std::make_tuple(33, 65, 17),
                                std::make_tuple(130, 257, 129)}) {
    const Matrix a = Random(m, k, 101);
    const Matrix b = Random(k, n, 103);
    const Matrix bt = Random(n, k, 107);
    Matrix want_nn, got_nn;
    MatMul(a, b, want_nn);
    util::ThreadPool pool(4);
    MatMul(a, b, got_nn, &pool);
    ExpectBitIdentical(got_nn, want_nn);

    Matrix want_nt(m, n, 0.0f), got_nt(m, n, 0.0f);
    MatMulTransposeBAcc(a, bt, want_nt);
    MatMulTransposeBAcc(a, bt, got_nt, &pool);
    ExpectBitIdentical(got_nt, want_nt);

    const Matrix at = Random(k, m, 109);  // (k, m)
    Matrix want_tn(m, n, 0.0f), got_tn(m, n, 0.0f);
    MatMulTransposeAAcc(at, b, want_tn);
    MatMulTransposeAAcc(at, b, got_tn, &pool);
    ExpectBitIdentical(got_tn, want_tn);
    EXPECT_EQ(pool.tasks_submitted() > 0,
              static_cast<size_t>(m) * n * k >= util::kMinParallelWork)
        << m << "x" << k << "x" << n;
  }
}

// Gradients still check out through the tiled GEMMs. Training tapes run
// inline; pooled GEMM stays under test through KernelShapes and
// MatrixPooled above.
TEST(KernelGradients, GradcheckThroughPooledMatMul) {
  util::Rng rng(5);
  autograd::Parameter w1("w1", 7, 9);
  autograd::Parameter w2("w2", 9, 3);
  w1.value.RandNormal(rng, 0.5f);
  w2.value.RandNormal(rng, 0.5f);
  const Matrix x = Random(5, 7, 109);

  const auto loss_fn = [&]() {
    autograd::Tape tape;
    autograd::Var h = autograd::MatMul(tape.Constant(x), tape.Leaf(&w1));
    autograd::Var out =
        autograd::MatMul(autograd::Tanh(h), tape.Leaf(&w2));
    autograd::Var loss = autograd::MeanAll(autograd::Square(out));
    w1.ZeroGrad();
    w2.ZeroGrad();
    tape.Backward(loss);
    return loss.scalar();
  };
  const auto result = autograd::CheckGradients({&w1, &w2}, loss_fn);
  EXPECT_TRUE(result.ok) << "max_abs=" << result.max_abs_error
                         << " max_rel=" << result.max_rel_error;
}

}  // namespace
}  // namespace dial::la
