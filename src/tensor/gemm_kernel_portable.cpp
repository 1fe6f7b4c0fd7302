// Portable (baseline-ISA) micro-kernel TU plus the runtime kernel dispatch.
//
// 4x8 tile: 32 accumulators fit the 16 xmm registers of baseline x86-64
// (8 registers of accumulator, 8 free for operands) and map equally well to
// NEON. The AVX2 TU (gemm_kernel_avx2.cpp) provides a wider 6x16 tile when
// both the toolchain and the CPU allow it.

#include "tensor/gemm_kernel.h"

#include <cstdlib>
#include <cstring>

#include "tensor/gemm_microkernel.inl"

namespace dlion::tensor::detail {

namespace {
constexpr int kPortableMR = 4;
constexpr int kPortableNR = 8;

void portable_tile(std::size_t kc, const float* a, const float* b, float alpha,
                   float* c, std::size_t ldc, std::size_t mr_eff,
                   std::size_t nr_eff) {
  micro_tile_impl<kPortableMR, kPortableNR, 16>(kc, a, b, alpha, c, ldc,
                                                mr_eff, nr_eff);
}

const MicroKernel& choose_kernel() {
  const char* force = std::getenv("DLION_GEMM_KERNEL");
  if (force != nullptr && std::strcmp(force, "portable") == 0) {
    return portable_micro_kernel();
  }
  // "avx2", or an unknown or unsupported request: auto-detection.
  const MicroKernel* avx2 = supported_avx2_micro_kernel();
  return avx2 != nullptr ? *avx2 : portable_micro_kernel();
}
}  // namespace

const MicroKernel& portable_micro_kernel() {
  static const MicroKernel kernel{kPortableMR, kPortableNR, &portable_tile,
                                  "portable-4x8", portable_small_kernel()};
  return kernel;
}

const MicroKernel* supported_avx2_micro_kernel() {
#if defined(DLION_HAVE_AVX2_KERNEL) && \
    (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &avx2_micro_kernel();
  }
#endif
  return nullptr;
}

const MicroKernel& active_micro_kernel() {
  // Chosen once per process: the choice never changes afterwards, so every
  // GEMM in a run uses the same kernel (per-host determinism).
  static const MicroKernel& kernel = choose_kernel();
  return kernel;
}

}  // namespace dlion::tensor::detail
