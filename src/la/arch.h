#ifndef DIAL_LA_ARCH_H_
#define DIAL_LA_ARCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Runtime CPU dispatch for the la/kernels hot paths. One binary carries
/// several instantiations of the kernel layer — a portable scalar build, an
/// AVX2 build, an AVX-512 build (x86), and a NEON build (aarch64) — and the
/// fastest one the running CPU supports is selected at startup behind the
/// `la::kernels` API. `-march=native` is no longer required for speed: a
/// plain Release build dispatches to the same wide-vector code paths.
///
/// The load-bearing property is **cross-tier bit-identity**: every tier
/// implements the exact accumulation orders documented in kernels.h
/// (16-lane interleaved row reductions with a fixed combine tree, the fixed
/// GEMM k-grouping, the 4-partial ADC scheme), every per-arch translation
/// unit compiles with `-ffp-contract=off`, and no tier uses FMA. Forcing
/// `scalar`, `avx2`, `avx512`, or `neon` therefore changes wall-clock only,
/// never results — tests/arch_test.cc asserts this for every tier the
/// running CPU can reach, and the repo-wide threaded ≡ inline invariant is
/// preserved per tier (threads still split output rows, never reductions).
///
/// Overrides: the `DIAL_FORCE_ARCH` environment variable (one of `scalar`,
/// `avx2`, `avx512`, `neon`, `native`) pins the tier at first kernel use, so
/// any tier can be exercised on any box — forcing *down* always works;
/// forcing a tier the CPU or build cannot run falls back to the best
/// supported tier with a warning on stderr. `SetTier` is the in-process
/// equivalent (benches and tests switch tiers per measurement).

namespace dial::la::arch {

/// Dispatch tiers, ordered cheapest-first within each ISA family. kNeon is
/// the aarch64 baseline build (NEON is mandatory on aarch64, so it exists
/// alongside kScalar to keep the tier axis explicit in benches).
enum class Tier {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// Stable lower-case name ("scalar", "avx2", "avx512", "neon").
const char* TierName(Tier tier);

/// Parses a tier name (or "native" = best detected). Returns false on
/// unknown text.
bool ParseTier(const std::string& text, Tier* out, bool* native);

/// Best tier this CPU *and* this binary support (a binary built without the
/// AVX-512 translation unit never reports kAvx512).
Tier DetectedTier();

/// True when `tier` is runnable here (compiled in + CPU supports it).
bool TierSupported(Tier tier);

/// Every runnable tier, cheapest first (always contains kScalar).
std::vector<Tier> SupportedTiers();

/// The tier kernels currently dispatch to.
Tier ActiveTier();

/// Switches dispatch to `tier`, clamping to the best supported tier at or
/// below the request (an unsupported request falls back toward scalar).
/// Returns the tier actually installed. Thread-safe; in-flight kernel calls
/// finish on the table they loaded.
Tier SetTier(Tier tier);

/// Re-applies the default policy: DIAL_FORCE_ARCH if set, else DetectedTier().
Tier ResetTierFromEnv();

/// Per-tier kernel entry points. Range kernels cover output rows
/// [i_begin, i_end) so the threading wrappers in kernels.cc can partition
/// rows without re-entering the dispatch table.
struct KernelTable {
  float (*dot)(const float* a, const float* b, size_t n);
  float (*squared_distance)(const float* a, const float* b, size_t n);
  void (*dot_batch)(const float* q, const float* base, size_t n, size_t d,
                    float* out);
  void (*squared_distance_batch)(const float* q, const float* base, size_t n,
                                 size_t d, float* out);
  void (*norms_squared)(const float* a, size_t n, size_t d, float* out);
  void (*squared_distance_from_dots)(float q_sq, const float* dots,
                                     const float* base_sq, size_t n,
                                     float* out);
  void (*gemm_nn_range)(size_t i_begin, size_t i_end, size_t n, size_t k,
                        const float* a, const float* b, float* out);
  void (*gemm_tn_range)(size_t i_begin, size_t i_end, size_t m, size_t n,
                        size_t k, const float* a, const float* b, float* out);
  void (*gemm_nt_range)(size_t i_begin, size_t i_end, size_t n, size_t k,
                        const float* a, const float* b, float* out);
  float (*adc_one)(const float* table, size_t ksub, const uint8_t* code,
                   size_t m);
  void (*adc_scan)(const float* table, size_t ksub, const uint8_t* codes,
                   size_t m, size_t n, float* out);
};

/// The table kernels.cc dispatches through (never null; initialized from
/// DIAL_FORCE_ARCH / detection on first use).
const KernelTable& Active();

/// Per-TU table accessors (null when that tier is not compiled into this
/// binary / not applicable to this target). Defined in kernels_arch_*.cc.
const KernelTable* ScalarKernelTable();
const KernelTable* Avx2KernelTable();
const KernelTable* Avx512KernelTable();
const KernelTable* NeonKernelTable();

/// Builds a KernelTable from one per-arch implementation namespace; used by
/// the kernels_arch_*.cc translation units only.
#define DIAL_ARCH_TABLE_INIT(ns)                                             \
  {                                                                          \
    &ns::Dot, &ns::SquaredDistance, &ns::DotBatch, &ns::SquaredDistanceBatch,\
        &ns::NormsSquared, &ns::SquaredDistanceFromDots, &ns::GemmNNRange,   \
        &ns::GemmTNRange, &ns::GemmNTRange, &ns::AdcOne, &ns::AdcScan,       \
  }

}  // namespace dial::la::arch

#endif  // DIAL_LA_ARCH_H_
