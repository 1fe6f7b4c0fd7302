// Max pooling over NCHW tensors.
#pragma once

#include "nn/layer.h"

namespace dlion::nn {

class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::size_t kernel, std::size_t stride = 0);

  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "MaxPool2D"; }

 private:
  std::size_t k_;
  std::size_t stride_;
  tensor::Shape input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
};

/// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "GlobalAvgPool"; }

 private:
  tensor::Shape input_shape_;
};

}  // namespace dlion::nn
