// Register-tiled GEMM micro-kernels behind a tiny dispatch table.
//
// The blocked GEMM driver (tensor/ops.cpp) packs A into (kc x MR) strips and
// B into (kc x NR) strips, then calls MicroKernel::tile for every MR x NR
// tile of C. The tile function accumulates
//
//     acc[i][j] = sum_{p=0}^{kc-1} a_strip[p*MR + i] * b_strip[p*NR + j]
//
// entirely in registers (fixed p-ascending order - this is what makes the
// whole GEMM bit-deterministic at any thread count) and then performs the
// epilogue  C[i][j] += alpha * acc[i][j]  for the valid mr_eff x nr_eff
// corner of the tile.
//
// GEMMs below the packing cutoff skip the blocked driver and go to the
// small-GEMM kernels instead (gemm_small.inl), which reproduce
// reference_gemm bit for bit; see small_gemm below.
//
// Two implementations are compiled from the same template bodies
// (gemm_microkernel.inl, gemm_small.inl):
//   * portable (4x8):  baseline ISA, always available.
//   * avx2 (6x16):     built only when the toolchain accepts -mavx2 -mfma
//                      (CMake defines DLION_HAVE_AVX2_KERNEL), selected at
//                      runtime only when the CPU reports AVX2+FMA.
// The active kernel is fixed for the lifetime of the process, so results
// are deterministic per host; DLION_GEMM_KERNEL=portable|avx2 overrides the
// choice (e.g. for cross-kernel comparisons or bit-reproduction of the
// packed path across machines with different ISAs).
#pragma once

#include <cstddef>

namespace dlion::tensor::detail {

using MicroTileFn = void (*)(std::size_t kc, const float* a_strip,
                             const float* b_strip, float alpha, float* c,
                             std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff);

/// Small-GEMM kernel: C += alpha * op(A) * op(B) for a problem below the
/// packing cutoff, bit-identical to reference_gemm(..., beta = 1). `panel`
/// is scratch for ceil(max(m, n) / strip) * strip * k floats. Returns false,
/// leaving C untouched, for an nn/tn problem with alpha != 1, or whose B
/// holds an inf or NaN, or whose C holds a -0.0, inf or NaN (see
/// gemm_small.inl); the caller then runs reference_gemm itself.
using SmallGemmFn = bool (*)(bool trans_a, bool trans_b, std::size_t m,
                             std::size_t n, std::size_t k, float alpha,
                             const float* a, const float* b, float* c,
                             float* panel);

/// One ISA's small-GEMM kernel (gemm_small.inl). It lives in its own
/// translation unit (gemm_small_{portable,avx2}.cpp, built with
/// -ffp-contract=off) so that flag cannot touch the packed micro-kernels.
struct SmallKernel {
  std::size_t strip = 0;  ///< packed strip width
  SmallGemmFn gemm = nullptr;
};

SmallKernel portable_small_kernel();
#if defined(DLION_HAVE_AVX2_KERNEL)
SmallKernel avx2_small_kernel();
#endif

struct MicroKernel {
  std::size_t mr = 0;  ///< A-strip register rows
  std::size_t nr = 0;  ///< B-strip register columns
  MicroTileFn tile = nullptr;
  const char* name = "";
  SmallKernel small;  ///< below-cutoff kernel of the same ISA
};

/// Baseline-ISA kernel; always linked.
const MicroKernel& portable_micro_kernel();

#if defined(DLION_HAVE_AVX2_KERNEL)
/// AVX2+FMA kernel; only safe to call when the CPU supports AVX2 and FMA.
const MicroKernel& avx2_micro_kernel();
#endif

/// The AVX2+FMA kernel when both the build and the CPU support it, else
/// nullptr. Callable from code built without DLION_HAVE_AVX2_KERNEL.
const MicroKernel* supported_avx2_micro_kernel();

/// C += alpha * op(A) * op(B) through `kernel.small`, with its panel taken
/// from the thread's ScratchArena, for problems below the packing cutoff
/// (beta is applied by the caller), or through reference_gemm when the
/// kernel declines the operands. Bit-identical to
/// reference_gemm(..., beta = 1) for every kernel, so the portable and AVX2
/// instantiations also agree with each other.
void small_gemm(const MicroKernel& kernel, bool trans_a, bool trans_b,
                std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float* c);

/// The kernel the process uses, chosen once: the widest kernel the CPU
/// supports, unless overridden via DLION_GEMM_KERNEL.
const MicroKernel& active_micro_kernel();

}  // namespace dlion::tensor::detail
