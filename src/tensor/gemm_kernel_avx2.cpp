// AVX2+FMA micro-kernel TU. Compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); only this translation unit carries those
// flags, and the dispatcher (gemm_kernel_portable.cpp) only calls into it
// after __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
// passes, so the binary stays runnable on baseline x86-64.
//
// 6x16 tile: 12 ymm accumulator registers + 2 for B loads + broadcasts fit
// the 16 ymm registers of Haswell+ - the classic BLIS sgemm shape.

#if defined(DLION_HAVE_AVX2_KERNEL)

#include "tensor/gemm_kernel.h"

#include <cstring>

#include "tensor/gemm_microkernel.inl"

namespace dlion::tensor::detail {

namespace {
constexpr int kAvx2MR = 6;
constexpr int kAvx2NR = 16;

void avx2_tile(std::size_t kc, const float* a, const float* b, float alpha,
               float* c, std::size_t ldc, std::size_t mr_eff,
               std::size_t nr_eff) {
  micro_tile_impl<kAvx2MR, kAvx2NR, 32>(kc, a, b, alpha, c, ldc, mr_eff,
                                        nr_eff);
}
}  // namespace

const MicroKernel& avx2_micro_kernel() {
  static const MicroKernel kernel{kAvx2MR, kAvx2NR, &avx2_tile, "avx2-6x16",
                                  avx2_small_kernel()};
  return kernel;
}

}  // namespace dlion::tensor::detail

#endif  // DLION_HAVE_AVX2_KERNEL
