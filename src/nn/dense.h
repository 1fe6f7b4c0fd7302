// Fully-connected layer: y = x W + b, with an optional fused ReLU epilogue.
#pragma once

#include <string>

#include "common/scratch.h"
#include "nn/layer.h"

namespace dlion::nn {

class Dense : public Layer {
 public:
  /// `name` prefixes the variable names ("<name>/W", "<name>/b").
  /// `fuse_relu` folds the activation into the layer: forward applies
  /// bias + ReLU in one pass over the output (recording the mask), and
  /// backward applies the ReLU mask before the weight/input gradients.
  /// Bit-identical to a separate ReLU layer, but one less traversal of the
  /// activation matrix and no per-step mask allocation.
  Dense(std::string name, std::size_t in_features, std::size_t out_features,
        bool fuse_relu = false);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  std::vector<Variable*> variables() override;
  void init_weights(common::Rng& rng) override;
  const char* kind() const override { return fuse_relu_ ? "DenseReLU" : "Dense"; }

 private:
  std::size_t in_;
  std::size_t out_;
  bool fuse_relu_;
  Variable weight_;  // (in, out)
  Variable bias_;    // (out)
  tensor::Tensor cached_input_;  // of the last training forward
  common::ScratchBuffer mask_;     // ReLU mask when fused (batch x out)
  common::ScratchBuffer dy_masked_;  // masked upstream grad scratch
};

}  // namespace dlion::nn
