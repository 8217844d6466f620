// AVX-512 tier (f/bw/dq/vl): single-zmm row reductions, the AVX2 tier's
// ymm block for NT GEMM, wider autovec on the generic NN/TN GEMM tile. Same
// arithmetic contract as every other tier — no FMA, -ffp-contract=off,
// fixed combine trees — so results match scalar bit for bit. Returns
// nullptr when the TU is built without AVX-512 support.
#include "la/arch.h"

#if defined(__AVX512F__)

#define DIAL_ARCH_NS avx512_impl
#include "la/kernels_arch.inc"
#undef DIAL_ARCH_NS

namespace dial::la::arch {

const KernelTable* Avx512KernelTable() {
  static const KernelTable table = DIAL_ARCH_TABLE_INIT(avx512_impl);
  return &table;
}

}  // namespace dial::la::arch

#else

namespace dial::la::arch {
const KernelTable* Avx512KernelTable() { return nullptr; }
}  // namespace dial::la::arch

#endif
