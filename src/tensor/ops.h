// Numeric kernels over Tensor: GEMM, elementwise ops, reductions, and the
// im2col/col2im transforms used by the convolution layers.
//
// GEMM is a cache-blocked, panel-packed implementation driving a
// register-tiled micro-kernel (see DESIGN.md "Numeric kernels" for the
// blocking scheme and the determinism policy). Problems of 512K
// multiply-adds or more take the packed path, which parallelizes over row
// blocks on the global thread pool while staying bit-deterministic at any
// thread count. Smaller ones run serial register-tiled small-GEMM kernels
// that are bit-identical to reference_gemm. The conv layers' evaluation
// forwards (conv2d_forward, depthwise_conv_relu) split their samples over
// the same pool.
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

/// Evaluation variant of the fused conv epilogue: the same activations, no
/// backward mask.
void add_bias_channels_relu(float* data, std::size_t images,
                            std::size_t channels, std::size_t plane,
                            const float* bias);

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

/// The input side of one convolution: `channels` (height x width) planes
/// per sample, read through a (kernel x kernel) window moved by `stride`
/// over the planes zero-padded by `pad`.
struct ConvGeometry {
  std::size_t channels, height, width, kernel, stride, pad;
  std::size_t out_h() const { return conv_out_dim(height, kernel, stride, pad); }
  std::size_t out_w() const { return conv_out_dim(width, kernel, stride, pad); }
};

/// Evaluation forward of a conv layer over `n` NCHW samples: for each
/// sample, im2col (skipped for a pointwise conv, whose GEMM reads the
/// sample in place), out_i = weight * col (`weight` is (out_channels,
/// channels * kernel^2)), then bias, and a ReLU when `relu`. `out` is (n,
/// out_channels, out_h, out_w). The samples are split over the global
/// thread pool, one block per party; each is exactly the per-sample
/// im2col, gemm and add_bias_channels[_relu] sequence, so the result is bit
/// for bit that of those calls at any pool size.
void conv2d_forward(const float* input, std::size_t n,
                    const ConvGeometry& geometry, std::size_t out_channels,
                    const float* weight, const float* bias, bool relu,
                    float* out);

/// Depthwise conv + bias + ReLU over `n` NCHW samples (depthwise.cpp), with
/// the channels in the vector lanes. `weight` is (channels, kernel^2), `out`
/// (n, channels, out_h, out_w). A training forward passes both `mask`, which
/// receives 1/0 per output in `out`'s layout, and `staged`, which receives
/// each sample channels-last (n x height*width x channels floats) for the
/// backward. An evaluation passes neither; its samples are split over the
/// global thread pool, one block per party, and staged through each
/// thread's scratch arena. Bit-identical to the scalar loop (bias, then
/// + w*x over the valid taps in ascending (ky, kx)) followed by a separate
/// ReLU, at any pool size.
void depthwise_conv_relu(const float* input, std::size_t n,
                         const ConvGeometry& geometry,
                         const float* weight, const float* bias, float* out,
                         float* mask, float* staged);

/// Backward of depthwise_conv_relu, given its `mask` and `staged` input:
/// masks `grad_out`, accumulates into `weight_grad` and `bias_grad`, and
/// writes the input gradient to `grad_in` (n, channels, height, width)
/// unless it is null. Bit-identical to a ReLU layer's backward followed by
/// the scalar depthwise backward.
void depthwise_conv_relu_backward(const float* grad_out, const float* mask,
                                  const float* staged, std::size_t n,
                                  const ConvGeometry& geometry,
                                  const float* weight, float* weight_grad,
                                  float* bias_grad, float* grad_in);

}  // namespace dlion::tensor
