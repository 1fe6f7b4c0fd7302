// Numeric kernels over Tensor: GEMM, elementwise ops, reductions, and the
// im2col/col2im transforms used by the convolution layers.
//
// GEMM is a cache-blocked, panel-packed implementation driving a
// register-tiled micro-kernel (see DESIGN.md "Numeric kernels" for the
// blocking scheme and the determinism policy). Problems of 512K
// multiply-adds or more take the packed path, which parallelizes over row
// blocks on the global thread pool while staying bit-deterministic at any
// thread count. Smaller ones run serial register-tiled small-GEMM kernels
// that are bit-identical to reference_gemm.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/tensor.h"

namespace dlion::tensor {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// A is (m x k) if !trans_a else (k x m); B is (k x n) if !trans_b else (n x k).
///
/// Deterministic: for a fixed host and build, the result is bit-identical
/// across runs and thread counts (fixed k-blocking order, one writer per C
/// element). Below 512K multiply-adds (m*n*k) the result is also
/// bit-identical to reference_gemm (gemm_ref.h) on every ISA. Above it,
/// bit-compatibility with reference_gemm or across hosts with different
/// vector ISAs is NOT promised.
void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/// Testing/bench hook: enable/disable the GEMM thread-pool fan-out.
/// Returns the previous setting. Results are bit-identical either way (that
/// is what the determinism tests assert); this only trades wall-clock.
bool set_gemm_parallel(bool enabled);

/// Name of the active GEMM micro-kernel (e.g. "avx2-6x16", "portable-4x8").
const char* gemm_kernel_name();

/// out = A * B for rank-2 tensors; shapes checked.
Tensor matmul(const Tensor& a, const Tensor& b);

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);
/// x *= alpha.
void scale(float alpha, std::span<float> x);
/// Elementwise sum reduction.
double sum(std::span<const float> x);
/// Dot product.
double dot(std::span<const float> x, std::span<const float> y);
/// L2 norm.
double l2_norm(std::span<const float> x);
/// Max of |x_i|; 0 for empty input.
float max_abs(std::span<const float> x);

/// Add row vector `bias` (length n) to each row of matrix `m_by_n`.
void add_bias_rows(Tensor& m_by_n, const Tensor& bias);

/// Fused epilogue for dense layers: data[r*cols + c] += bias[c], then ReLU
/// in place, recording mask[i] = 1.0f where the post-bias value was > 0 and
/// 0.0f elsewhere. Bit-identical to add_bias_rows followed by a separate
/// ReLU pass, but touches the activation matrix once.
void add_bias_rows_relu(float* data, std::size_t rows, std::size_t cols,
                        const float* bias, float* mask);

/// Inference-only variant of the fused dense epilogue: bias + ReLU in one
/// pass with no backward mask. Bit-identical activations to the masked
/// overload (same arithmetic, same order).
void add_bias_rows_relu(float* data, std::size_t rows, std::size_t cols,
                        const float* bias);

/// Add bias[ch] to each element of the (images x channels x plane) conv
/// activation block (plane = out_h * out_w).
void add_bias_channels(float* data, std::size_t images, std::size_t channels,
                       std::size_t plane, const float* bias);

/// Fused conv epilogue: add_bias_channels + in-place ReLU + mask, single
/// pass (mask layout matches data).
void add_bias_channels_relu(float* data, std::size_t images,
                            std::size_t channels, std::size_t plane,
                            const float* bias, float* mask);

/// dst[i] = grad[i] * mask[i] (ReLU backward for the fused layers). `dst`
/// may alias `grad`.
void apply_mask(const float* grad, const float* mask, float* dst,
                std::size_t n);

/// im2col for NCHW input: expands (C, H, W) patches of one image into a
/// matrix of shape (C*kh*kw, out_h*out_w) for GEMM-based convolution.
void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t pad, float* col);

/// Inverse of im2col: accumulates columns back into image gradients.
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw,
            std::size_t stride, std::size_t pad, float* img);

/// Output spatial size of a convolution/pool along one dimension.
constexpr std::size_t conv_out_dim(std::size_t in, std::size_t k,
                                   std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace dlion::tensor
