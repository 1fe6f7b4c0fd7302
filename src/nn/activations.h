// Parameter-free activation and shape layers: ReLU, Flatten.
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
  tensor::Tensor mask_;  // 1 where the last training input was > 0
};

/// Collapses any rank-N input to (batch, features).
class Flatten : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, bool train) override;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) override;
  const char* kind() const override { return "Flatten"; }

 private:
  tensor::Shape input_shape_;  // of the last forward
};

}  // namespace dlion::nn
