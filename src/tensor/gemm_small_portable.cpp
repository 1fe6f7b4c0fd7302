// Portable (baseline-ISA, 128-bit) instantiation of the small-GEMM kernels
// (gemm_small.inl): 8-float strips, two vectors per tile line. Built with
// -ffp-contract=off (see src/tensor/CMakeLists.txt).

#include "tensor/gemm_kernel.h"

#include "tensor/gemm_small.inl"

namespace dlion::tensor::detail {

namespace {
typedef float PortableVec __attribute__((vector_size(16)));
using PortableSmall = SmallGemm<PortableVec>;
}  // namespace

SmallKernel portable_small_kernel() {
  return {PortableSmall::kStrip, &PortableSmall::gemm};
}

}  // namespace dlion::tensor::detail
