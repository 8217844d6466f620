// Public kernel entry points: thin threading + dispatch shims. The compute
// lives in kernels_arch.inc, instantiated once per CPU tier (see la/arch.h);
// this TU only partitions output rows across the pool and forwards to the
// active tier's table. The table is loaded once per entry call, so a
// concurrent SetTier never mixes tiers within one GEMM.
#include "la/kernels.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "la/arch.h"
#include "util/hash.h"
#include "util/thread_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define DIAL_RESTRICT __restrict__
#else
#define DIAL_RESTRICT
#endif

namespace dial::la::kernels {

namespace {
constexpr size_t kTransposeTile = 32;

/// n fixed values in [-1, 1): a multiplicative hash of (i + salt), so the
/// low mantissa bits vary and every rounding step shows in the results.
std::vector<float> Probe(size_t n, uint32_t salt) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t h = (static_cast<uint32_t>(i) + salt) * 2654435761u;
    v[i] = static_cast<float>(h >> 8) / 8388608.0f - 1.0f;
  }
  return v;
}
}  // namespace

void GemmNN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(
      pool, m,
      [=, &table](size_t begin, size_t end) {
        table.gemm_nn_range(begin, end, n, k, a, b, out);
      },
      m * n * k);
}

void GemmTN(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(
      pool, m,
      [=, &table](size_t begin, size_t end) {
        table.gemm_tn_range(begin, end, m, n, k, a, b, out);
      },
      m * n * k);
}

void GemmNT(size_t m, size_t n, size_t k, const float* a, const float* b,
            float* out, util::ThreadPool* pool) {
  if (m == 0 || n == 0 || k == 0) return;
  const arch::KernelTable& table = arch::Active();
  util::ParallelFor(
      pool, m,
      [=, &table](size_t begin, size_t end) {
        table.gemm_nt_range(begin, end, n, k, a, b, out);
      },
      m * n * k);
}

void TransposeBlocked(size_t rows, size_t cols, const float* DIAL_RESTRICT in,
                      float* DIAL_RESTRICT out) {
  for (size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const size_t r1 = std::min(rows, r0 + kTransposeTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const size_t c1 = std::min(cols, c0 + kTransposeTile);
      for (size_t r = r0; r < r1; ++r) {
        const float* DIAL_RESTRICT irow = in + r * cols;
        for (size_t c = c0; c < c1; ++c) out[c * rows + r] = irow[c];
      }
    }
  }
}

float Dot(const float* a, const float* b, size_t n) {
  return arch::Active().dot(a, b, n);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  return arch::Active().squared_distance(a, b, n);
}

void DotBatch(const float* q, const float* base, size_t n, size_t d,
              float* out) {
  arch::Active().dot_batch(q, base, n, d, out);
}

void SquaredDistanceBatch(const float* q, const float* base, size_t n,
                          size_t d, float* out) {
  arch::Active().squared_distance_batch(q, base, n, d, out);
}

void NormsSquared(const float* a, size_t n, size_t d, float* out) {
  arch::Active().norms_squared(a, n, d, out);
}

// The best value stays in a local, so no store to `best` forces a reload of
// v[best]. Same comparisons as against v[best]: a NaN v[0] is never beaten
// and a later NaN never wins.
size_t ArgMin(const float* v, size_t n) {
  size_t best = 0;
  float best_v = v[0];
  for (size_t i = 1; i < n; ++i) {
    if (v[i] < best_v) {
      best_v = v[i];
      best = i;
    }
  }
  return best;
}

size_t ArgMax(const float* v, size_t n) {
  size_t best = 0;
  float best_v = v[0];
  for (size_t i = 1; i < n; ++i) {
    if (v[i] > best_v) {
      best_v = v[i];
      best = i;
    }
  }
  return best;
}

void SquaredDistanceFromDots(float q_sq, const float* dots,
                             const float* base_sq, size_t n, float* out) {
  arch::Active().squared_distance_from_dots(q_sq, dots, base_sq, n, out);
}

float AdcDistance(const float* table, size_t ksub, const uint8_t* code,
                  size_t m) {
  return arch::Active().adc_one(table, ksub, code, m);
}

void AdcDistanceScan(const float* table, size_t ksub, const uint8_t* codes,
                     size_t m, size_t n, float* out) {
  arch::Active().adc_scan(table, ksub, codes, m, n, out);
}

uint64_t OutputDigest() {
  // 37 = two 16-lane chunks and a tail of 5. 35 rows = two 16-row groups and
  // 3 leftover rows, at d = 8 (the PQ subspace width) and d = 37. The GEMM
  // shape crosses the 64-wide k and j panels and leaves m % 4 and k % 4
  // tails; 11 ADC subspaces leave a tail of 3.
  constexpr size_t kLen = 37, kRows = 35, kM = 6, kN = 67, kK = 69;
  constexpr size_t kSub = 11, kKsub = 16, kCodes = 9;
  std::vector<float> out;
  const auto append = [&out](const std::vector<float>& v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  const std::vector<float> a = Probe(kRows * kLen, 1);
  const std::vector<float> q = Probe(kLen, 2);
  out.push_back(Dot(q.data(), a.data(), kLen));
  out.push_back(SquaredDistance(q.data(), a.data(), kLen));
  std::vector<float> rows(kRows);
  for (const size_t d : {size_t{8}, kLen}) {
    DotBatch(q.data(), a.data(), kRows, d, rows.data());
    append(rows);
    SquaredDistanceBatch(q.data(), a.data(), kRows, d, rows.data());
    append(rows);
    NormsSquared(a.data(), kRows, d, rows.data());
    append(rows);
  }
  SquaredDistanceFromDots(0.75f, a.data(), a.data() + kRows, kRows,
                          rows.data());
  append(rows);
  const std::vector<float> x = Probe(kM * kK, 3);
  const std::vector<float> y = Probe(kK * kN, 4);
  std::vector<float> gemm(kM * kN, 0.0f);
  GemmNN(kM, kN, kK, x.data(), y.data(), gemm.data());
  append(gemm);
  std::fill(gemm.begin(), gemm.end(), 0.0f);
  GemmTN(kM, kN, kK, x.data(), y.data(), gemm.data());
  append(gemm);
  std::fill(gemm.begin(), gemm.end(), 0.0f);
  GemmNT(kM, kN, kK, x.data(), y.data(), gemm.data());
  append(gemm);
  const std::vector<float> table = Probe(kSub * kKsub, 5);
  std::vector<uint8_t> codes(kCodes * kSub);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint8_t>((i * 7 + 3) % kKsub);
  }
  out.push_back(AdcDistance(table.data(), kKsub, codes.data(), kSub));
  std::vector<float> adc(kCodes);
  AdcDistanceScan(table.data(), kKsub, codes.data(), kSub, kCodes, adc.data());
  append(adc);
  return util::Fnv1a(std::string_view(reinterpret_cast<const char*>(out.data()),
                                      out.size() * sizeof(float)));
}

}  // namespace dial::la::kernels
