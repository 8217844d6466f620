// AVX2 tier: the same kernels_arch.inc arithmetic compiled with -mavx2 (no
// FMA, -ffp-contract=off), which enables the hand-written AVX2 paths for the
// row reductions and NT GEMM's 8-column block, and lets the vectorizer widen
// the generic NN/TN GEMM tile. Returns nullptr when this
// TU is built for a target without AVX2 (e.g. aarch64), so dispatch simply
// never offers the tier.
#include "la/arch.h"

#if defined(__AVX2__)

#define DIAL_ARCH_NS avx2_impl
#include "la/kernels_arch.inc"
#undef DIAL_ARCH_NS

namespace dial::la::arch {

const KernelTable* Avx2KernelTable() {
  static const KernelTable table = DIAL_ARCH_TABLE_INIT(avx2_impl);
  return &table;
}

}  // namespace dial::la::arch

#else

namespace dial::la::arch {
const KernelTable* Avx2KernelTable() { return nullptr; }
}  // namespace dial::la::arch

#endif
