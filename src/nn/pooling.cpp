#include "nn/pooling.h"

#include <limits>
#include <stdexcept>

#include "tensor/ops.h"

namespace dlion::nn {

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride)
    : k_(kernel), stride_(stride == 0 ? kernel : stride) {}

tensor::Tensor MaxPool2D::forward(const tensor::Tensor& input, bool /*train*/) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("MaxPool2D::forward: expected NCHW, got " +
                                input.shape().to_string());
  }
  input_shape_ = input.shape();
  const std::size_t n = input.shape()[0], c = input.shape()[1];
  const std::size_t h = input.shape()[2], w = input.shape()[3];
  const std::size_t oh = tensor::conv_out_dim(h, k_, stride_, 0);
  const std::size_t ow = tensor::conv_out_dim(w, k_, stride_, 0);
  tensor::Tensor out(tensor::Shape{n, c, oh, ow});
  argmax_.assign(out.size(), 0);
  std::size_t oidx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (i * c + ch) * h * w;
      const std::size_t plane_off = (i * c + ch) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::size_t iy = oy * stride_ + ky;
            if (iy >= h) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::size_t ix = ox * stride_ + kx;
              if (ix >= w) continue;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          out[oidx] = best;
          argmax_[oidx] = plane_off + best_idx;
          ++oidx;
        }
      }
    }
  }
  return out;
}

tensor::Tensor MaxPool2D::backward(const tensor::Tensor& grad_output,
                                   bool /*need_input_grad*/) {
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2D::backward: size mismatch");
  }
  tensor::Tensor grad_in(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_in[argmax_[i]] += grad_output[i];
  }
  return grad_in;
}

tensor::Tensor GlobalAvgPool::forward(const tensor::Tensor& input,
                                      bool /*train*/) {
  if (input.shape().rank() != 4) {
    throw std::invalid_argument("GlobalAvgPool::forward: expected NCHW");
  }
  input_shape_ = input.shape();
  const std::size_t n = input.shape()[0], c = input.shape()[1];
  const std::size_t plane = input.shape()[2] * input.shape()[3];
  tensor::Tensor out(tensor::Shape{n, c});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* p = input.data() + (i * c + ch) * plane;
      float acc = 0.0f;
      for (std::size_t j = 0; j < plane; ++j) acc += p[j];
      out.at(i, ch) = acc / static_cast<float>(plane);
    }
  }
  return out;
}

tensor::Tensor GlobalAvgPool::backward(const tensor::Tensor& grad_output,
                                       bool /*need_input_grad*/) {
  const std::size_t n = input_shape_[0], c = input_shape_[1];
  const std::size_t plane = input_shape_[2] * input_shape_[3];
  tensor::Tensor grad_in(input_shape_);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at(i, ch) * inv;
      float* p = grad_in.data() + (i * c + ch) * plane;
      for (std::size_t j = 0; j < plane; ++j) p[j] = g;
    }
  }
  return grad_in;
}

}  // namespace dlion::nn
