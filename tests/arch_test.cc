#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "la/arch.h"
#include "la/kernels.h"
#include "tplm/model_cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

/// Forced-arch parity suite: the cross-tier bit-identity contract of
/// la/arch.h, asserted for every dispatch tier the running CPU can reach.
/// Every kernel must produce IDENTICAL BITS on every tier (and with or
/// without a thread pool). Smoke-labeled so the sanitizer and native CI jobs
/// cover the detection + dispatch code too.

namespace dial::la {
namespace {

namespace arch = dial::la::arch;

/// Restores the ambient tier (env policy) when a test exits.
class TierGuard {
 public:
  TierGuard() = default;
  ~TierGuard() { arch::ResetTierFromEnv(); }
};

std::vector<float> RandomVec(util::Rng& rng, size_t n, float limit = 1.0f) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = (static_cast<float>(rng.Next() >> 40) / 16777216.0f * 2.0f - 1.0f) *
        limit;
  }
  return v;
}

TEST(ArchDetect, ScalarAlwaysSupportedAndActiveTierValid) {
  EXPECT_TRUE(arch::TierSupported(arch::Tier::kScalar));
  const auto tiers = arch::SupportedTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), arch::Tier::kScalar);
  bool active_listed = false;
  for (arch::Tier t : tiers) {
    if (t == arch::ActiveTier()) active_listed = true;
  }
  EXPECT_TRUE(active_listed);
  EXPECT_TRUE(arch::TierSupported(arch::DetectedTier()));
}

TEST(ArchDetect, ParseTierRoundTripsEveryName) {
  for (arch::Tier t : {arch::Tier::kScalar, arch::Tier::kAvx2,
                       arch::Tier::kAvx512, arch::Tier::kNeon}) {
    arch::Tier parsed;
    bool native = true;
    ASSERT_TRUE(arch::ParseTier(arch::TierName(t), &parsed, &native));
    EXPECT_EQ(parsed, t);
    EXPECT_FALSE(native);
  }
  arch::Tier parsed;
  bool native = false;
  ASSERT_TRUE(arch::ParseTier("native", &parsed, &native));
  EXPECT_TRUE(native);
  EXPECT_EQ(parsed, arch::DetectedTier());
  EXPECT_FALSE(arch::ParseTier("sse9000", &parsed, &native));
}

TEST(ArchDetect, SetTierClampsToSupportedAndForcingDownWorks) {
  TierGuard guard;
  // Forcing down to scalar always works.
  EXPECT_EQ(arch::SetTier(arch::Tier::kScalar), arch::Tier::kScalar);
  EXPECT_EQ(arch::ActiveTier(), arch::Tier::kScalar);
  // Any request installs SOME supported tier at or below it.
  for (arch::Tier req : {arch::Tier::kAvx512, arch::Tier::kAvx2,
                         arch::Tier::kNeon}) {
    const arch::Tier got = arch::SetTier(req);
    EXPECT_TRUE(arch::TierSupported(got)) << arch::TierName(req);
    if (!arch::TierSupported(req)) {
      EXPECT_NE(got, req);
    }
  }
  EXPECT_EQ(arch::SetTier(arch::DetectedTier()), arch::DetectedTier());
}

/// Everything the kernel API computes for one fixed input set, so a
/// whole tier can be compared against scalar with one struct equality.
struct KernelOutputs {
  float dot = 0.0f;
  float sqdist = 0.0f;
  std::vector<float> dot_batch;
  std::vector<float> sqdist_batch;
  std::vector<float> sqdist_groups;
  std::vector<float> sqdist_narrow;
  std::vector<float> norms;
  std::vector<float> from_dots;
  std::vector<float> gemm_nn;
  std::vector<float> gemm_tn;
  std::vector<float> gemm_nt;
  float adc = 0.0f;
  std::vector<float> adc_scan;
};

struct KernelInputs {
  // Deliberately awkward sizes: every tail path (n % 16 row reduction,
  // m % 4 GEMM rows / k-steps, m % 4 ADC subspaces, n % 8 ADC codes) runs.
  // The GEMM row count `m` is a parameter so a case above
  // util::kMinParallelWork can reach the pool's row split.
  static constexpr size_t kN = 37, kK = 83;
  static constexpr size_t kRows = 19, kDim = 53;
  static constexpr size_t kSub = 11, kKsub = 14, kCodes = 29;
  // Three full 16-row groups and no dim tail: the AVX-512 batch scan runs
  // only its grouped reduction. At kNarrowDim, the PQ subspace width, it
  // runs only its gathered d < 16 path.
  static constexpr size_t kGroupRows = 48, kGroupDim = 32, kNarrowDim = 8;

  size_t m;
  std::vector<float> a, b_nn, b_nt, a_tn, q, base, dots, base_sq, table;
  std::vector<float> group_q, group_base, narrow_q, narrow_base;
  std::vector<uint8_t> codes;

  KernelInputs(uint64_t seed, size_t gemm_rows) : m(gemm_rows) {
    util::Rng rng(seed);
    a = RandomVec(rng, m * kK);
    b_nn = RandomVec(rng, kK * kN);
    b_nt = RandomVec(rng, kN * kK);
    a_tn = RandomVec(rng, kK * m);
    q = RandomVec(rng, kDim);
    base = RandomVec(rng, kRows * kDim);
    dots = RandomVec(rng, kRows);
    base_sq = RandomVec(rng, kRows, 2.0f);
    table = RandomVec(rng, kSub * kKsub, 3.0f);
    codes.resize(kCodes * kSub);
    for (uint8_t& c : codes) {
      c = static_cast<uint8_t>(rng.UniformInt(kKsub));
    }
    group_q = RandomVec(rng, kGroupDim);
    group_base = RandomVec(rng, kGroupRows * kGroupDim);
    narrow_q = RandomVec(rng, kNarrowDim);
    narrow_base = RandomVec(rng, kGroupRows * kNarrowDim);
  }
};

KernelOutputs ComputeAll(const KernelInputs& in, util::ThreadPool* pool) {
  using I = KernelInputs;
  KernelOutputs out;
  out.dot = kernels::Dot(in.q.data(), in.base.data(), I::kDim);
  out.sqdist = kernels::SquaredDistance(in.q.data(), in.base.data(), I::kDim);
  out.dot_batch.resize(I::kRows);
  kernels::DotBatch(in.q.data(), in.base.data(), I::kRows, I::kDim,
                    out.dot_batch.data());
  out.sqdist_batch.resize(I::kRows);
  kernels::SquaredDistanceBatch(in.q.data(), in.base.data(), I::kRows, I::kDim,
                                out.sqdist_batch.data());
  out.sqdist_groups.resize(I::kGroupRows);
  kernels::SquaredDistanceBatch(in.group_q.data(), in.group_base.data(),
                                I::kGroupRows, I::kGroupDim,
                                out.sqdist_groups.data());
  out.sqdist_narrow.resize(I::kGroupRows);
  kernels::SquaredDistanceBatch(in.narrow_q.data(), in.narrow_base.data(),
                                I::kGroupRows, I::kNarrowDim,
                                out.sqdist_narrow.data());
  out.norms.resize(I::kRows);
  kernels::NormsSquared(in.base.data(), I::kRows, I::kDim, out.norms.data());
  out.from_dots.resize(I::kRows);
  kernels::SquaredDistanceFromDots(1.75f, in.dots.data(), in.base_sq.data(),
                                   I::kRows, out.from_dots.data());
  out.gemm_nn.assign(in.m * I::kN, 0.125f);
  kernels::GemmNN(in.m, I::kN, I::kK, in.a.data(), in.b_nn.data(),
                  out.gemm_nn.data(), pool);
  out.gemm_tn.assign(in.m * I::kN, -0.5f);
  kernels::GemmTN(in.m, I::kN, I::kK, in.a_tn.data(), in.b_nn.data(),
                  out.gemm_tn.data(), pool);
  out.gemm_nt.assign(in.m * I::kN, 0.0f);
  kernels::GemmNT(in.m, I::kN, I::kK, in.a.data(), in.b_nt.data(),
                  out.gemm_nt.data(), pool);
  out.adc = kernels::AdcDistance(in.table.data(), I::kKsub, in.codes.data(),
                                 I::kSub);
  out.adc_scan.resize(I::kCodes);
  kernels::AdcDistanceScan(in.table.data(), I::kKsub, in.codes.data(), I::kSub,
                           I::kCodes, out.adc_scan.data());
  return out;
}

void ExpectBitIdentical(const KernelOutputs& want, const KernelOutputs& got,
                        const char* tier) {
  // memcmp, not float ==: the contract is identical BITS, and this also
  // pins NaN payloads should one ever appear.
  EXPECT_EQ(std::memcmp(&want.dot, &got.dot, sizeof(float)), 0) << tier;
  EXPECT_EQ(std::memcmp(&want.sqdist, &got.sqdist, sizeof(float)), 0) << tier;
  EXPECT_EQ(std::memcmp(&want.adc, &got.adc, sizeof(float)), 0) << tier;
  const auto vec_eq = [&](const std::vector<float>& w,
                          const std::vector<float>& g, const char* name) {
    ASSERT_EQ(w.size(), g.size()) << tier << " " << name;
    EXPECT_EQ(std::memcmp(w.data(), g.data(), w.size() * sizeof(float)), 0)
        << tier << " " << name;
  };
  vec_eq(want.dot_batch, got.dot_batch, "dot_batch");
  vec_eq(want.sqdist_batch, got.sqdist_batch, "sqdist_batch");
  vec_eq(want.sqdist_groups, got.sqdist_groups, "sqdist_groups");
  vec_eq(want.sqdist_narrow, got.sqdist_narrow, "sqdist_narrow");
  vec_eq(want.norms, got.norms, "norms");
  vec_eq(want.from_dots, got.from_dots, "from_dots");
  vec_eq(want.gemm_nn, got.gemm_nn, "gemm_nn");
  vec_eq(want.gemm_tn, got.gemm_tn, "gemm_tn");
  vec_eq(want.gemm_nt, got.gemm_nt, "gemm_nt");
  vec_eq(want.adc_scan, got.adc_scan, "adc_scan");
}

TEST(ArchParity, EveryTierBitIdenticalToScalarInlineAndPooled) {
  TierGuard guard;
  // 13 GEMM rows stay below util::kMinParallelWork, so the pooled call runs
  // inline; kPooledRows (347*37*83 ~ 1.07M multiply-adds) split over the
  // pool's workers.
  constexpr size_t kPooledRows = 347;
  for (const size_t m : {size_t{13}, kPooledRows}) {
    const KernelInputs in(0xd1a1, m);
    ASSERT_EQ(arch::SetTier(arch::Tier::kScalar), arch::Tier::kScalar);
    const KernelOutputs want = ComputeAll(in, nullptr);

    util::ThreadPool pool(3);
    for (arch::Tier tier : arch::SupportedTiers()) {
      ASSERT_EQ(arch::SetTier(tier), tier);
      const KernelOutputs inline_out = ComputeAll(in, nullptr);
      ExpectBitIdentical(want, inline_out, arch::TierName(tier));
      const size_t submitted_before = pool.tasks_submitted();
      const KernelOutputs pooled_out = ComputeAll(in, &pool);
      ExpectBitIdentical(want, pooled_out, arch::TierName(tier));
      if (m == kPooledRows) {
        EXPECT_GT(pool.tasks_submitted(), submitted_before)
            << arch::TierName(tier);
      }
    }
  }
}

TEST(ArchParity, OutputDigestIsTheSameOnEveryTier) {
  // tplm::ModelCache keys its entries on this digest, so a tier that
  // computed another one would split the cache by DIAL_FORCE_ARCH.
  TierGuard guard;
  ASSERT_EQ(arch::SetTier(arch::Tier::kScalar), arch::Tier::kScalar);
  const uint64_t want = kernels::OutputDigest();
  for (arch::Tier tier : arch::SupportedTiers()) {
    ASSERT_EQ(arch::SetTier(tier), tier);
    EXPECT_EQ(kernels::OutputDigest(), want) << arch::TierName(tier);
  }
}

TEST(ArchParity, PretrainDigestIsTheSameOnEveryTier) {
  // The model cache's other digest: a tiny pretraining run, through the
  // tape, the optimizer and both pretraining loops.
  TierGuard guard;
  ASSERT_EQ(arch::SetTier(arch::Tier::kScalar), arch::Tier::kScalar);
  const uint64_t want = tplm::PretrainDigest();
  for (arch::Tier tier : arch::SupportedTiers()) {
    ASSERT_EQ(arch::SetTier(tier), tier);
    EXPECT_EQ(tplm::PretrainDigest(), want) << arch::TierName(tier);
  }
}

}  // namespace
}  // namespace dial::la
