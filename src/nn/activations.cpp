#include "nn/activations.h"

#include <stdexcept>

namespace dlion::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& input, bool /*train*/) {
  tensor::Tensor out = input;
  // Reuse the mask storage across steps: activation shapes are stable
  // during training, so this allocates only on the first call (or a shape
  // change). Both branches write the mask explicitly so no stale values
  // survive the reuse.
  if (!(mask_.shape() == input.shape())) {
    mask_ = tensor::Tensor(input.shape());
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0f) {
      mask_[i] = 1.0f;
    } else {
      mask_[i] = 0.0f;
      out[i] = 0.0f;
    }
  }
  return out;
}

tensor::Tensor ReLU::backward(const tensor::Tensor& grad_output,
                              bool /*need_input_grad*/) {
  if (!(grad_output.shape() == mask_.shape())) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  tensor::Tensor grad_in = grad_output;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

tensor::Tensor Flatten::forward(const tensor::Tensor& input, bool /*train*/) {
  input_shape_ = input.shape();
  tensor::Tensor out = input;
  const std::size_t batch = input.shape().rank() > 0 ? input.shape()[0] : 1;
  out.reshape(tensor::Shape{batch, input.size() / batch});
  return out;
}

tensor::Tensor Flatten::backward(const tensor::Tensor& grad_output,
                                 bool /*need_input_grad*/) {
  tensor::Tensor grad_in = grad_output;
  grad_in.reshape(input_shape_);
  return grad_in;
}

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("Dropout: p must be in [0, 1)");
  }
}

tensor::Tensor Dropout::forward(const tensor::Tensor& input, bool train) {
  train_ = train;
  if (!train_ || p_ == 0.0) return input;
  tensor::Tensor out = input;
  mask_ = tensor::Tensor(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng_.bernoulli(p_)) {
      out[i] = 0.0f;
    } else {
      mask_[i] = keep_scale;
      out[i] *= keep_scale;
    }
  }
  return out;
}

tensor::Tensor Dropout::backward(const tensor::Tensor& grad_output,
                                 bool /*need_input_grad*/) {
  if (!train_ || p_ == 0.0) return grad_output;
  tensor::Tensor grad_in = grad_output;
  for (std::size_t i = 0; i < grad_in.size(); ++i) grad_in[i] *= mask_[i];
  return grad_in;
}

}  // namespace dlion::nn
