// GEMM-based 2-D convolution (NCHW) via im2col, plus the depthwise variant
// used by the MobileNet-style model in the zoo. An evaluation forward
// (train == false) of either splits its samples over the global thread
// pool (tensor::conv2d_forward, tensor::depthwise_conv_relu), bit for bit;
// training forwards and backwards loop over the samples on the caller.
#pragma once

#include <string>

#include "common/scratch.h"
#include "nn/layer.h"
#include "tensor/ops.h"

namespace dlion::nn {

class Conv2D : public Layer {
 public:
  /// `fuse_relu` folds the activation into the layer: forward applies
  /// bias + ReLU in one pass over the output planes (recording the mask),
  /// and backward applies the ReLU mask before the weight/input gradients.
  /// Bit-identical to a separate ReLU layer, but one less traversal of the
  /// activations and no per-step mask allocation.
  Conv2D(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0,
         bool fuse_relu = false);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  std::vector<Variable*> variables() override;
  void init_weights(common::Rng& rng) override;
  const char* kind() const override {
    return fuse_relu_ ? "Conv2DReLU" : "Conv2D";
  }

 private:
  tensor::ConvGeometry geometry(const tensor::Shape& input) const;

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  bool fuse_relu_;
  Variable weight_;  // (out_c, in_c * k * k)
  Variable bias_;    // (out_c)
  tensor::Shape input_shape_;        // of the last training forward
  common::ScratchBuffer cols_;       // im2col per batch element, concatenated
  common::ScratchBuffer dcol_;       // col-space gradient scratch (backward)
  common::ScratchBuffer mask_;       // ReLU mask when fused (n x out_c x oh*ow)
  common::ScratchBuffer dy_masked_;  // masked upstream grad scratch
};

/// Depthwise convolution (each input channel convolved with its own kernel)
/// followed by a ReLU, which every depthwise conv in the zoo has. Runs the
/// channels in the vector lanes (tensor::depthwise_conv_relu); bit-identical
/// to the scalar depthwise loops followed by a separate ReLU layer.
class DepthwiseConv2D : public Layer {
 public:
  DepthwiseConv2D(std::string name, std::size_t channels, std::size_t kernel,
                  std::size_t stride = 1, std::size_t pad = 0);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  std::vector<Variable*> variables() override;
  void init_weights(common::Rng& rng) override;
  const char* kind() const override { return "DepthwiseConv2DReLU"; }

 private:
  tensor::ConvGeometry geometry(const tensor::Shape& input) const;

  std::size_t c_, k_, stride_, pad_;
  Variable weight_;  // (c, k*k)
  Variable bias_;    // (c)
  tensor::Shape input_shape_;      // of the last training forward
  common::ScratchBuffer staged_;   // its input, channels-last per sample
  common::ScratchBuffer mask_;     // ReLU mask (n x c x oh*ow)
};

}  // namespace dlion::nn
