// Bitwise conformance of MobileNet's conv layers against the algorithms
// they replaced. DepthwiseConv2D (channels in the vector lanes, ReLU fused)
// must equal the scalar depthwise loops followed by a separate nn::ReLU, and
// a Conv2D (pointwise GEMMs read the input in place) must equal per-sample
// im2col + reference_gemm + bias followed by nn::ReLU. Compared bit for bit:
// the forward in training and in evaluation, the input gradient, and the W
// and b gradients, over three steps that accumulate into the same gradients
// and reuse the layers' scratch. Inputs hold exact +0.0, -0.0 and negatives.
// The evaluation forward, which splits its samples over the thread pool, is
// also compared at pool sizes 1, 2 and 4.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "tensor/gemm_ref.h"
#include "tensor/ops.h"

namespace dlion::nn {
namespace {

// Normal values with every 5th element +0.0 and every 7th -0.0.
tensor::Tensor signed_zero_tensor(const tensor::Shape& shape,
                                  common::Rng& rng) {
  tensor::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal());
    if (i % 5 == 0) t[i] = 0.0f;
    if (i % 7 == 3) t[i] = -0.0f;
  }
  return t;
}

void expect_bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b,
                          const char* what) {
  ASSERT_TRUE(a.shape() == b.shape())
      << what << ": " << a.shape().to_string() << " vs "
      << b.shape().to_string();
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

// The scalar depthwise conv the lane kernel replaced, kept verbatim as the
// oracle, with the standalone ReLU layer that used to follow it.
struct ScalarDepthwiseReLU {
  std::size_t c, k, stride, pad;
  tensor::Tensor weight, bias, weight_grad, bias_grad;
  tensor::Tensor cached_input;
  ReLU relu;

  tensor::Tensor forward(const tensor::Tensor& input, bool train) {
    if (train) cached_input = input;
    const std::size_t n = input.shape()[0];
    const std::size_t h = input.shape()[2], w = input.shape()[3];
    const std::size_t oh = tensor::conv_out_dim(h, k, stride, pad);
    const std::size_t ow = tensor::conv_out_dim(w, k, stride, pad);
    tensor::Tensor out(tensor::Shape{n, c, oh, ow});
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float* img = input.data() + (i * c + ch) * h * w;
        const float* ker = weight.data() + ch * k * k;
        float* dst = out.data() + (i * c + ch) * oh * ow;
        const float b = bias[ch];
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float acc = b;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                acc += ker[ky * k + kx] *
                       img[static_cast<std::size_t>(iy) * w +
                           static_cast<std::size_t>(ix)];
              }
            }
            dst[oy * ow + ox] = acc;
          }
        }
      }
    }
    return relu.forward(out, train);
  }

  tensor::Tensor backward(const tensor::Tensor& relu_grad_output,
                          bool need_input_grad) {
    const tensor::Tensor grad_output = relu.backward(relu_grad_output, true);
    const std::size_t n = cached_input.shape()[0];
    const std::size_t h = cached_input.shape()[2];
    const std::size_t w = cached_input.shape()[3];
    const std::size_t oh = tensor::conv_out_dim(h, k, stride, pad);
    const std::size_t ow = tensor::conv_out_dim(w, k, stride, pad);
    tensor::Tensor grad_in;
    if (need_input_grad) grad_in = tensor::Tensor(cached_input.shape());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const float* img = cached_input.data() + (i * c + ch) * h * w;
        const float* dout = grad_output.data() + (i * c + ch) * oh * ow;
        const float* ker = weight.data() + ch * k * k;
        float* dker = weight_grad.data() + ch * k * k;
        float* dimg =
            need_input_grad ? grad_in.data() + (i * c + ch) * h * w : nullptr;
        float dbias = 0.0f;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const float g = dout[oy * ow + ox];
            dbias += g;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox * stride + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                const std::size_t pix = static_cast<std::size_t>(iy) * w +
                                        static_cast<std::size_t>(ix);
                dker[ky * k + kx] += g * img[pix];
                if (dimg != nullptr) dimg[pix] += g * ker[ky * k + kx];
              }
            }
          }
        }
        bias_grad[ch] += dbias;
      }
    }
    return grad_in;
  }
};

// A conv the way Conv2D computed it before a pointwise conv read its input
// in place and an evaluation split its samples over the pool: per-sample
// im2col + GEMM (reference_gemm, which the small GEMM kernels match bit for
// bit), bias, and a standalone ReLU layer when `relu`.
struct Im2colConvReLU {
  std::size_t in_c, out_c, k, stride, pad;
  bool relu_after;
  tensor::Tensor weight, bias, weight_grad, bias_grad;
  tensor::Shape input_shape;
  std::vector<float> cols;
  ReLU relu;

  tensor::Tensor forward(const tensor::Tensor& input, bool train) {
    const std::size_t n = input.shape()[0];
    const std::size_t h = input.shape()[2], w = input.shape()[3];
    const std::size_t oh = tensor::conv_out_dim(h, k, stride, pad);
    const std::size_t ow = tensor::conv_out_dim(w, k, stride, pad);
    const std::size_t col_size = in_c * k * k * oh * ow;
    std::vector<float> col(col_size);
    if (train) {
      input_shape = input.shape();
      cols.assign(n * col_size, 0.0f);
    }
    tensor::Tensor out(tensor::Shape{n, out_c, oh, ow});
    for (std::size_t i = 0; i < n; ++i) {
      tensor::im2col(input.data() + i * in_c * h * w, in_c, h, w, k, k, stride,
                     pad, col.data());
      if (train) std::copy(col.begin(), col.end(), cols.begin() + i * col_size);
      tensor::reference_gemm(false, false, out_c, oh * ow, in_c * k * k, 1.0f,
                             weight.data(), col.data(), 0.0f,
                             out.data() + i * out_c * oh * ow);
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        float* p = out.data() + (i * out_c + oc) * oh * ow;
        for (std::size_t x = 0; x < oh * ow; ++x) p[x] += bias[oc];
      }
    }
    return relu_after ? relu.forward(out, train) : out;
  }

  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          bool need_input_grad) {
    const tensor::Tensor dy =
        relu_after ? relu.backward(grad_output, true) : grad_output;
    const std::size_t n = input_shape[0];
    const std::size_t h = input_shape[2], w = input_shape[3];
    const std::size_t plane = dy.shape()[2] * dy.shape()[3];
    const std::size_t col_rows = in_c * k * k;
    tensor::Tensor grad_in;
    std::vector<float> dcol(col_rows * plane);
    if (need_input_grad) grad_in = tensor::Tensor(input_shape);
    for (std::size_t i = 0; i < n; ++i) {
      const float* dout = dy.data() + i * out_c * plane;
      tensor::reference_gemm(false, true, out_c, col_rows, plane, 1.0f, dout,
                             cols.data() + i * col_rows * plane, 1.0f,
                             weight_grad.data());
      if (need_input_grad) {
        tensor::reference_gemm(true, false, col_rows, plane, out_c, 1.0f,
                               weight.data(), dout, 0.0f, dcol.data());
        tensor::col2im(dcol.data(), in_c, h, w, k, k, stride, pad,
                       grad_in.data() + i * in_c * h * w);
      }
      for (std::size_t oc = 0; oc < out_c; ++oc) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < plane; ++p) acc += dout[oc * plane + p];
        bias_grad[oc] += acc;
      }
    }
    return grad_in;
  }
};

// Gives `layer` and `oracle` the same weights, bias and (non-zero) starting
// gradients, so the first backward already accumulates onto memory.
template <typename Oracle>
void share_state(Layer& layer, Oracle& oracle, common::Rng& rng) {
  const std::vector<Variable*> vars = layer.variables();
  ASSERT_EQ(vars.size(), 2u);
  vars[0]->value() = signed_zero_tensor(vars[0]->value().shape(), rng);
  vars[1]->value() = signed_zero_tensor(vars[1]->value().shape(), rng);
  vars[0]->grad() = signed_zero_tensor(vars[0]->value().shape(), rng);
  vars[1]->grad() = signed_zero_tensor(vars[1]->value().shape(), rng);
  oracle.weight = vars[0]->value();
  oracle.bias = vars[1]->value();
  oracle.weight_grad = vars[0]->grad();
  oracle.bias_grad = vars[1]->grad();
}

// Three training steps, each with an evaluation forward of another batch
// size between the training forward and the backward.
template <typename Oracle>
void expect_steps_match(Layer& layer, Oracle& oracle,
                        const tensor::Shape& input_shape,
                        bool need_input_grad, std::uint64_t seed) {
  common::Rng rng(seed);
  share_state(layer, oracle, rng);
  const std::vector<Variable*> vars = layer.variables();
  std::vector<std::size_t> eval_dims = input_shape.dims();
  eval_dims[0] += 2;
  const tensor::Shape eval_shape(eval_dims);
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const tensor::Tensor x = signed_zero_tensor(input_shape, rng);
    const tensor::Tensor y = layer.forward(x, /*train=*/true);
    expect_bitwise_equal(y, oracle.forward(x, true), "training forward");

    const tensor::Tensor x_eval = signed_zero_tensor(eval_shape, rng);
    expect_bitwise_equal(layer.forward(x_eval, /*train=*/false),
                         oracle.forward(x_eval, false), "evaluation forward");

    const tensor::Tensor dy = signed_zero_tensor(y.shape(), rng);
    const tensor::Tensor dx = layer.backward(dy, need_input_grad);
    const tensor::Tensor dx_oracle = oracle.backward(dy, need_input_grad);
    if (need_input_grad) expect_bitwise_equal(dx, dx_oracle, "input grad");
    expect_bitwise_equal(vars[0]->grad(), oracle.weight_grad, "W grad");
    expect_bitwise_equal(vars[1]->grad(), oracle.bias_grad, "b grad");
  }
}

struct DepthwiseCase {
  std::size_t channels, size, stride;
};

void expect_depthwise_cases(const std::vector<DepthwiseCase>& cases) {
  std::uint64_t seed = 100;
  for (const DepthwiseCase& dc : cases) {
    for (std::size_t batch : {1u, 33u}) {
      for (bool need_input_grad : {true, false}) {
        SCOPED_TRACE(std::to_string(dc.channels) + " ch @ " +
                     std::to_string(dc.size) + "x" + std::to_string(dc.size) +
                     " s" + std::to_string(dc.stride) + ", batch " +
                     std::to_string(batch) +
                     (need_input_grad ? ", input grad" : ", no input grad"));
        DepthwiseConv2D layer("dw", dc.channels, 3, dc.stride, 1);
        ScalarDepthwiseReLU oracle{dc.channels, 3, dc.stride, 1, {}, {},
                                   {}, {}, {}, {}};
        expect_steps_match(layer, oracle,
                           tensor::Shape{batch, dc.channels, dc.size, dc.size},
                           need_input_grad, ++seed);
      }
    }
  }
}

TEST(DepthwiseConvConformance, MobileNetShapesBitIdenticalToScalarPlusReLU) {
  // MobileNet-20's four depthwise convs (k3 p1) on the bench images.
  expect_depthwise_cases({{12, 6, 1}, {24, 6, 2}, {48, 3, 1}, {48, 3, 2}});
}

TEST(DepthwiseConvConformance, OddChannelsAndUnitPlanesBitIdentical) {
  // Channel counts that fill no whole vector, and 1x1 input planes whose
  // every tap but the centre falls in the padding.
  expect_depthwise_cases({{5, 7, 1}, {5, 7, 2}, {9, 1, 1}, {24, 1, 2}});
}

TEST(DepthwiseConvConformance, KindReportsTheFusedReLU) {
  EXPECT_STREQ("DepthwiseConv2DReLU", DepthwiseConv2D("dw", 4, 3).kind());
}

TEST(PointwiseConvConformance, BitIdenticalToIm2colGemmPlusReLU) {
  struct PointwiseCase {
    std::size_t in_c, out_c, size;
  };
  // MobileNet-20's four pointwise convs, then odd widths and a 1x1 plane.
  const std::vector<PointwiseCase> cases = {
      {12, 24, 6}, {24, 48, 3}, {48, 48, 3}, {48, 96, 2}, {5, 7, 1}, {3, 5, 4}};
  std::uint64_t seed = 200;
  for (const PointwiseCase& pc : cases) {
    for (std::size_t batch : {1u, 33u}) {
      for (bool need_input_grad : {true, false}) {
        SCOPED_TRACE(std::to_string(pc.in_c) + "->" +
                     std::to_string(pc.out_c) + " @ " +
                     std::to_string(pc.size) + "x" + std::to_string(pc.size) +
                     ", batch " + std::to_string(batch) +
                     (need_input_grad ? ", input grad" : ", no input grad"));
        Conv2D layer("pw", pc.in_c, pc.out_c, 1, 1, 0, /*fuse_relu=*/true);
        Im2colConvReLU oracle{pc.in_c, pc.out_c, 1, 1, 0, true, {}, {},
                              {}, {}, {}, {}, {}};
        expect_steps_match(layer, oracle,
                           tensor::Shape{batch, pc.in_c, pc.size, pc.size},
                           need_input_grad, ++seed);
      }
    }
  }
}

struct ConvCase {
  std::size_t in_c, out_c, kernel, stride, pad, size;
  bool relu;
};

std::string describe(const ConvCase& cc) {
  return std::to_string(cc.in_c) + "->" + std::to_string(cc.out_c) + " k" +
         std::to_string(cc.kernel) + " s" + std::to_string(cc.stride) + " p" +
         std::to_string(cc.pad) + " @ " + std::to_string(cc.size) + "x" +
         std::to_string(cc.size) + (cc.relu ? " + ReLU" : "");
}

// Convs that expand their input with im2col: MobileNet-20's stem, the
// cipher CNN's first conv on a smaller image, and layers without a ReLU.
const std::vector<ConvCase> kIm2colCases = {{3, 12, 3, 2, 1, 12, true},
                                            {1, 10, 5, 1, 2, 14, true},
                                            {3, 5, 3, 1, 1, 5, false},
                                            {2, 3, 3, 2, 0, 7, false}};

TEST(ConvConformance, Im2colShapesBitIdenticalToIm2colGemm) {
  std::uint64_t seed = 300;
  for (const ConvCase& cc : kIm2colCases) {
    for (std::size_t batch : {1u, 33u}) {
      for (bool need_input_grad : {true, false}) {
        SCOPED_TRACE(describe(cc) + ", batch " + std::to_string(batch) +
                     (need_input_grad ? ", input grad" : ", no input grad"));
        Conv2D layer("conv", cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad,
                     cc.relu);
        Im2colConvReLU oracle{cc.in_c, cc.out_c, cc.kernel, cc.stride,
                              cc.pad,  cc.relu,  {},        {},
                              {},      {},       {},        {},
                              {}};
        expect_steps_match(layer, oracle,
                           tensor::Shape{batch, cc.in_c, cc.size, cc.size},
                           need_input_grad, ++seed);
      }
    }
  }
}

// The evaluation forward splits its samples over the global pool, one block
// per party. It is compared at pool sizes 1, 2 and 4 with batches of 1, 33
// (blocks of unequal size) and 512 (the benchmark's evaluation batch: 128
// samples per party at 4).
template <typename Oracle>
void expect_evaluation_matches_at_pool_sizes(Layer& layer, Oracle& oracle,
                                             std::size_t channels,
                                             std::size_t size,
                                             std::uint64_t seed) {
  common::Rng rng(seed);
  share_state(layer, oracle, rng);
  for (std::size_t threads : {1u, 2u, 4u}) {
    common::ThreadPool::reset_global_for_testing(threads);
    for (std::size_t batch : {1u, 33u, 512u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, batch " +
                   std::to_string(batch));
      const tensor::Tensor x =
          signed_zero_tensor(tensor::Shape{batch, channels, size, size}, rng);
      expect_bitwise_equal(layer.forward(x, /*train=*/false),
                           oracle.forward(x, false), "evaluation forward");
    }
  }
  common::ThreadPool::reset_global_for_testing(0);
}

TEST(DepthwiseConvConformance, EvaluationBitIdenticalAtPoolSizes1To4) {
  const std::vector<DepthwiseCase> cases = {
      {12, 6, 1}, {24, 6, 2}, {48, 3, 1}, {48, 3, 2}, {5, 7, 2}};
  std::uint64_t seed = 400;
  for (const DepthwiseCase& dc : cases) {
    SCOPED_TRACE(std::to_string(dc.channels) + " ch @ " +
                 std::to_string(dc.size) + " s" + std::to_string(dc.stride));
    DepthwiseConv2D layer("dw", dc.channels, 3, dc.stride, 1);
    ScalarDepthwiseReLU oracle{dc.channels, 3, dc.stride, 1, {}, {},
                               {}, {}, {}, {}};
    expect_evaluation_matches_at_pool_sizes(layer, oracle, dc.channels,
                                            dc.size, ++seed);
  }
}

TEST(ConvConformance, EvaluationBitIdenticalAtPoolSizes1To4) {
  // MobileNet-20's four pointwise convs, an odd pointwise width, then the
  // im2col shapes.
  std::vector<ConvCase> cases = {{12, 24, 1, 1, 0, 6, true},
                                 {24, 48, 1, 1, 0, 3, true},
                                 {48, 48, 1, 1, 0, 3, true},
                                 {48, 96, 1, 1, 0, 2, true},
                                 {5, 7, 1, 1, 0, 1, true}};
  cases.insert(cases.end(), kIm2colCases.begin(), kIm2colCases.end());
  std::uint64_t seed = 500;
  for (const ConvCase& cc : cases) {
    SCOPED_TRACE(describe(cc));
    Conv2D layer("conv", cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad,
                 cc.relu);
    Im2colConvReLU oracle{cc.in_c, cc.out_c, cc.kernel, cc.stride,
                          cc.pad,  cc.relu,  {},        {},
                          {},      {},       {},        {},
                          {}};
    expect_evaluation_matches_at_pool_sizes(layer, oracle, cc.in_c, cc.size,
                                            ++seed);
  }
}

// A per-sample GEMM above the packed path's fan-out threshold (128 x 64 x
// 576, about 9.4 MFLOP in two row blocks) issues its own parallel_for from
// inside an evaluation task. On a worker that call runs inline, so the
// evaluation neither deadlocks nor changes a bit: it equals the training
// forward, which loops over the samples on the caller.
TEST(ConvConformance, EvaluationWithNestedPackedGemmMatchesTraining) {
  Conv2D layer("wide", 64, 128, 3, 1, 1, /*fuse_relu=*/true);
  common::Rng rng(600);
  const std::vector<Variable*> vars = layer.variables();
  vars[0]->value() = signed_zero_tensor(vars[0]->value().shape(), rng);
  vars[1]->value() = signed_zero_tensor(vars[1]->value().shape(), rng);
  for (std::size_t threads : {1u, 2u, 4u}) {
    common::ThreadPool::reset_global_for_testing(threads);
    for (std::size_t batch : {1u, 9u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, batch " +
                   std::to_string(batch));
      const tensor::Tensor x =
          signed_zero_tensor(tensor::Shape{batch, 64, 8, 8}, rng);
      const tensor::Tensor trained = layer.forward(x, /*train=*/true);
      expect_bitwise_equal(layer.forward(x, /*train=*/false), trained,
                           "evaluation forward");
    }
  }
  common::ThreadPool::reset_global_for_testing(0);
}

}  // namespace
}  // namespace dlion::nn
