#include "nn/activations.h"

#include <stdexcept>
#include <utility>

namespace dlion::nn {

tensor::Tensor ReLU::forward(const tensor::Tensor& input, bool train) {
  tensor::Tensor out = input;
  // Reuse the mask storage across steps: activation shapes are stable
  // during training, so this allocates only on the first call (or a shape
  // change). Every element is written, so no stale values survive the reuse.
  if (train && !(mask_.shape() == input.shape())) {
    mask_ = tensor::Tensor(input.shape());
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool pos = out[i] > 0.0f;
    if (!pos) out[i] = 0.0f;
    if (train) mask_[i] = pos ? 1.0f : 0.0f;
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
  // Every forward of a model sees the same per-sample shape, and backward
  // takes the batch size from its gradient, so an evaluation forward
  // recording the shape leaves a training forward's state intact.
  input_shape_ = input.shape();
  tensor::Tensor out = input;
  const std::size_t batch = input.shape().rank() > 0 ? input.shape()[0] : 1;
  out.reshape(tensor::Shape{batch, input.size() / batch});
  return out;
}

tensor::Tensor Flatten::backward(const tensor::Tensor& grad_output,
                                 bool /*need_input_grad*/) {
  std::vector<std::size_t> dims = input_shape_.dims();
  if (!dims.empty()) dims[0] = grad_output.shape()[0];
  tensor::Tensor grad_in = grad_output;
  grad_in.reshape(tensor::Shape(std::move(dims)));
  return grad_in;
}

}  // namespace dlion::nn
