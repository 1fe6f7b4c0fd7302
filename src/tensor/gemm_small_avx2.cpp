// AVX2 (256-bit) instantiation of the small-GEMM kernels (gemm_small.inl):
// 16-float strips, two ymm per tile line. Built with -mavx2 and
// -ffp-contract=off but without -mfma: the kernels must round every multiply
// and add separately, exactly like reference_gemm. Only reached through
// avx2_micro_kernel(), i.e. after the runtime AVX2+FMA check.

#if defined(DLION_HAVE_AVX2_KERNEL)

#include "tensor/gemm_kernel.h"

#include "tensor/gemm_small.inl"

namespace dlion::tensor::detail {

namespace {
typedef float Avx2Vec __attribute__((vector_size(32)));
using Avx2Small = SmallGemm<Avx2Vec>;
}  // namespace

SmallKernel avx2_small_kernel() {
  return {Avx2Small::kStrip, &Avx2Small::gemm};
}

}  // namespace dlion::tensor::detail

#endif  // DLION_HAVE_AVX2_KERNEL
