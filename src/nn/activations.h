// Parameter-free activation and shape layers: ReLU, Flatten, Dropout.
#pragma once

#include "nn/layer.h"

namespace dlion::nn {

class ReLU : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "ReLU"; }

 private:
  tensor::Tensor mask_;  // 1 where input > 0
};

/// Collapses any rank-N input to (batch, features).
class Flatten : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "Flatten"; }

 private:
  tensor::Shape input_shape_;
};

/// Inverted dropout: scales kept activations by 1/(1-p) at train time so
/// inference needs no rescaling.
class Dropout : public Layer {
 public:
  Dropout(double p, std::uint64_t seed);
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "Dropout"; }

 private:
  double p_;
  common::Rng rng_;
  tensor::Tensor mask_;
  bool train_ = false;
};

}  // namespace dlion::nn
