#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace dlion::nn {

Dense::Dense(std::string name, std::size_t in_features,
             std::size_t out_features, bool fuse_relu)
    : in_(in_features),
      out_(out_features),
      fuse_relu_(fuse_relu),
      weight_(name + "/W", tensor::Shape{in_features, out_features}),
      bias_(name + "/b", tensor::Shape{out_features}) {}

void Dense::init_weights(common::Rng& rng) {
  // He initialization: suitable for the ReLU nets in the model zoo.
  const double std = std::sqrt(2.0 / static_cast<double>(in_));
  for (auto& w : weight_.value().span()) {
    w = static_cast<float>(rng.normal(0.0, std));
  }
  bias_.value().fill(0.0f);
}

tensor::Tensor Dense::forward(const tensor::Tensor& input, bool /*train*/) {
  if (input.shape().rank() != 2 || input.shape()[1] != in_) {
    throw std::invalid_argument("Dense::forward: expected (batch, " +
                                std::to_string(in_) + "), got " +
                                input.shape().to_string());
  }
  cached_input_ = input;
  const std::size_t batch = input.shape()[0];
  tensor::Tensor out(tensor::Shape{batch, out_});
  tensor::gemm(false, false, batch, out_, in_, 1.0f, input.data(),
               weight_.value().data(), 0.0f, out.data());
  if (fuse_relu_) {
    // Fused epilogue: bias + ReLU + mask in one pass over the activations.
    float* mask = mask_.ensure(batch * out_);
    tensor::add_bias_rows_relu(out.data(), batch, out_, bias_.value().data(),
                               mask);
  } else {
    tensor::add_bias_rows(out, bias_.value());
  }
  return out;
}

tensor::Tensor Dense::backward(const tensor::Tensor& grad_output,
                               bool need_input_grad) {
  const std::size_t batch = cached_input_.shape()[0];
  if (grad_output.shape().rank() != 2 || grad_output.shape()[0] != batch ||
      grad_output.shape()[1] != out_) {
    throw std::invalid_argument("Dense::backward: bad grad shape " +
                                grad_output.shape().to_string());
  }
  const float* dy = grad_output.data();
  if (fuse_relu_) {
    // ReLU backward first: dy <- dy * mask (into reusable scratch).
    float* masked = dy_masked_.ensure(batch * out_);
    tensor::apply_mask(dy, mask_.data(), masked, batch * out_);
    dy = masked;
  }
  // dW += x^T * dy
  tensor::gemm(true, false, in_, out_, batch, 1.0f, cached_input_.data(), dy,
               1.0f, weight_.grad().data());
  // db += column sums of dy
  for (std::size_t r = 0; r < batch; ++r) {
    const float* row = dy + r * out_;
    float* __restrict db = bias_.grad().data();
    for (std::size_t c = 0; c < out_; ++c) db[c] += row[c];
  }
  if (!need_input_grad) return {};
  // dx = dy * W^T
  tensor::Tensor grad_in(tensor::Shape{batch, in_});
  tensor::gemm(false, true, batch, in_, out_, 1.0f, dy,
               weight_.value().data(), 0.0f, grad_in.data());
  return grad_in;
}

std::vector<Variable*> Dense::variables() { return {&weight_, &bias_}; }

}  // namespace dlion::nn
