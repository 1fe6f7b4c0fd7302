// Reference GEMM: the pre-blocking naive kernels, kept verbatim as the
// conformance oracle (tests/tensor/gemm_conformance_test.cpp) - bitwise for
// the small-GEMM kernels, to a tolerance for the packed kernels - and as the
// "before" side of the tracked hot-path benchmark (bench/hotpath.cpp ->
// BENCH_hotpath.json). Built with -ffp-contract=off so its multiplies and
// adds stay separate on every compiler and target.
//
// These are intentionally simple row-loop kernels with no packing, no cache
// blocking, and no threading. Do not optimize them: their value is being
// obviously correct and representing the pre-PR baseline.
#pragma once

#include <cstddef>

namespace dlion::tensor {

/// C = alpha * op(A) * op(B) + beta * C, row-major, serial naive loops.
/// Same shape conventions as tensor::gemm (see ops.h).
void reference_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a, const float* b,
                    float beta, float* c);

}  // namespace dlion::tensor
