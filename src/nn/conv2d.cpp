#include "nn/conv2d.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"

namespace dlion::nn {

Conv2D::Conv2D(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, bool fuse_relu)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      fuse_relu_(fuse_relu),
      weight_(name + "/W",
              tensor::Shape{out_channels, in_channels * kernel * kernel}),
      bias_(name + "/b", tensor::Shape{out_channels}) {}

void Conv2D::init_weights(common::Rng& rng) {
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double std = std::sqrt(2.0 / fan_in);
  for (auto& w : weight_.value().span()) {
    w = static_cast<float>(rng.normal(0.0, std));
  }
  bias_.value().fill(0.0f);
}

tensor::Tensor Conv2D::forward(const tensor::Tensor& input, bool train) {
  if (input.shape().rank() != 4 || input.shape()[1] != in_c_) {
    throw std::invalid_argument("Conv2D::forward: expected (N, " +
                                std::to_string(in_c_) + ", H, W), got " +
                                input.shape().to_string());
  }
  const std::size_t n = input.shape()[0];
  const tensor::ConvGeometry g = geometry(input.shape());
  tensor::Tensor out(tensor::Shape{n, out_c_, g.out_h(), g.out_w()});
  if (!train) {
    tensor::conv2d_forward(input.data(), n, g, out_c_, weight_.value().data(),
                           bias_.value().data(), fuse_relu_, out.data());
    return out;
  }

  // Training keeps every sample's columns for backward. A pointwise conv's
  // im2col is a copy of its input, so its GEMMs read that copy.
  input_shape_ = input.shape();
  const std::size_t col_rows = in_c_ * k_ * k_;
  const std::size_t col_cols = g.out_h() * g.out_w();
  const std::size_t in_size = in_c_ * g.height * g.width;
  const bool pointwise = k_ == 1 && stride_ == 1 && pad_ == 0;
  float* cols = cols_.ensure(n * col_rows * col_cols);
  if (pointwise) std::memcpy(cols, input.data(), input.size() * sizeof(float));
  for (std::size_t i = 0; i < n; ++i) {
    float* col = cols + i * col_rows * col_cols;
    if (!pointwise) {
      tensor::im2col(input.data() + i * in_size, in_c_, g.height, g.width, k_,
                     k_, stride_, pad_, col);
    }
    // out_i (out_c x col_cols) = W (out_c x col_rows) * col
    tensor::gemm(false, false, out_c_, col_cols, col_rows, 1.0f,
                 weight_.value().data(), col, 0.0f,
                 out.data() + i * out_c_ * col_cols);
  }
  if (fuse_relu_) {
    // Fused epilogue: bias + ReLU + mask in one pass over the activations.
    float* mask = mask_.ensure(n * out_c_ * col_cols);
    tensor::add_bias_channels_relu(out.data(), n, out_c_, col_cols,
                                   bias_.value().data(), mask);
  } else {
    tensor::add_bias_channels(out.data(), n, out_c_, col_cols,
                              bias_.value().data());
  }
  return out;
}

tensor::Tensor Conv2D::backward(const tensor::Tensor& grad_output,
                                bool need_input_grad) {
  if (input_shape_.rank() != 4) {
    throw std::logic_error("Conv2D::backward: no training forward");
  }
  const std::size_t n = input_shape_[0];
  const tensor::ConvGeometry g = geometry(input_shape_);
  const std::size_t col_rows = in_c_ * k_ * k_;
  const std::size_t col_cols = g.out_h() * g.out_w();
  const tensor::Shape& gs = grad_output.shape();
  if (gs.rank() != 4 || gs[0] != n || gs[1] != out_c_ || gs[2] != g.out_h() ||
      gs[3] != g.out_w()) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape " +
                                grad_output.shape().to_string());
  }

  const float* dy = grad_output.data();
  if (fuse_relu_) {
    // ReLU backward first: dy <- dy * mask (into reusable scratch).
    const std::size_t total = n * out_c_ * col_cols;
    float* masked = dy_masked_.ensure(total);
    tensor::apply_mask(dy, mask_.data(), masked, total);
    dy = masked;
  }
  tensor::Tensor grad_in;
  float* dcol = nullptr;
  if (need_input_grad) {
    grad_in = tensor::Tensor(input_shape_);
    dcol = dcol_.ensure(col_rows * col_cols);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* dout = dy + i * out_c_ * col_cols;
    const float* col = cols_.data() + i * col_rows * col_cols;
    // dW += dout (out_c x col_cols) * col^T (col_cols x col_rows)
    tensor::gemm(false, true, out_c_, col_rows, col_cols, 1.0f, dout, col,
                 1.0f, weight_.grad().data());
    if (need_input_grad) {
      // dcol = W^T (col_rows x out_c) * dout. col2im accumulates it into the
      // zero-filled gradient, also for a pointwise conv: that add is what
      // turns a -0.0 into +0.0.
      tensor::gemm(true, false, col_rows, col_cols, out_c_, 1.0f,
                   weight_.value().data(), dout, 0.0f, dcol);
      tensor::col2im(dcol, in_c_, g.height, g.width, k_, k_, stride_, pad_,
                     grad_in.data() + i * in_c_ * g.height * g.width);
    }
    // db += per-channel sums of dout
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* plane = dout + oc * col_cols;
      float acc = 0.0f;
      for (std::size_t p = 0; p < col_cols; ++p) acc += plane[p];
      bias_.grad()[oc] += acc;
    }
  }
  return grad_in;
}

std::vector<Variable*> Conv2D::variables() { return {&weight_, &bias_}; }

tensor::ConvGeometry Conv2D::geometry(const tensor::Shape& input) const {
  return {in_c_, input[2], input[3], k_, stride_, pad_};
}

DepthwiseConv2D::DepthwiseConv2D(std::string name, std::size_t channels,
                                 std::size_t kernel, std::size_t stride,
                                 std::size_t pad)
    : c_(channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + "/W", tensor::Shape{channels, kernel * kernel}),
      bias_(name + "/b", tensor::Shape{channels}) {}

void DepthwiseConv2D::init_weights(common::Rng& rng) {
  const double std = std::sqrt(2.0 / static_cast<double>(k_ * k_));
  for (auto& w : weight_.value().span()) {
    w = static_cast<float>(rng.normal(0.0, std));
  }
  bias_.value().fill(0.0f);
}

tensor::ConvGeometry DepthwiseConv2D::geometry(
    const tensor::Shape& input) const {
  return {c_, input[2], input[3], k_, stride_, pad_};
}

tensor::Tensor DepthwiseConv2D::forward(const tensor::Tensor& input,
                                        bool train) {
  if (input.shape().rank() != 4 || input.shape()[1] != c_) {
    throw std::invalid_argument("DepthwiseConv2D::forward: bad shape " +
                                input.shape().to_string());
  }
  const std::size_t n = input.shape()[0];
  const tensor::ConvGeometry g = geometry(input.shape());
  tensor::Tensor out(tensor::Shape{n, c_, g.out_h(), g.out_w()});
  float* mask = nullptr;
  float* staged = nullptr;
  if (train) {
    input_shape_ = input.shape();
    mask = mask_.ensure(out.size());
    staged = staged_.ensure(input.size());
  }
  tensor::depthwise_conv_relu(input.data(), n, g, weight_.value().data(),
                              bias_.value().data(), out.data(), mask, staged);
  return out;
}

tensor::Tensor DepthwiseConv2D::backward(
    const tensor::Tensor& grad_output, bool need_input_grad) {
  if (input_shape_.rank() != 4) {
    throw std::logic_error("DepthwiseConv2D::backward: no training forward");
  }
  const std::size_t n = input_shape_[0];
  const tensor::ConvGeometry g = geometry(input_shape_);
  const tensor::Shape& gs = grad_output.shape();
  if (gs.rank() != 4 || gs[0] != n || gs[1] != c_ || gs[2] != g.out_h() ||
      gs[3] != g.out_w()) {
    throw std::invalid_argument("DepthwiseConv2D::backward: bad grad shape " +
                                grad_output.shape().to_string());
  }
  tensor::Tensor grad_in;
  if (need_input_grad) grad_in = tensor::Tensor(input_shape_);
  tensor::depthwise_conv_relu_backward(
      grad_output.data(), mask_.data(), staged_.data(), n, g,
      weight_.value().data(), weight_.grad().data(), bias_.grad().data(),
      need_input_grad ? grad_in.data() : nullptr);
  return grad_in;
}

std::vector<Variable*> DepthwiseConv2D::variables() {
  return {&weight_, &bias_};
}

}  // namespace dlion::nn
