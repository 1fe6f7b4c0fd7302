// Bit-identity tests for the fused bias+ReLU epilogues: a Dense/Conv2D
// constructed with fuse_relu=true must produce exactly the same forward
// activations and backward gradients as the unfused layer followed by a
// separate ReLU - that is the contract that lets the model zoo fuse its
// activation pairs without perturbing training trajectories.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"

namespace dlion::nn {
namespace {

tensor::Tensor random_tensor(const tensor::Shape& shape, common::Rng& rng) {
  tensor::Tensor t(shape);
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

void expect_bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b,
                          const char* what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

void expect_grads_equal(Layer& fused, Layer& unfused) {
  auto fv = fused.variables();
  auto uv = unfused.variables();
  ASSERT_EQ(fv.size(), uv.size());
  for (std::size_t i = 0; i < fv.size(); ++i) {
    expect_bitwise_equal(fv[i]->grad(), uv[i]->grad(), "variable grad");
  }
}

TEST(FusedDense, ForwardBackwardBitIdenticalToDensePlusReLU) {
  common::Rng rng_a(5), rng_b(5), rng_x(6);
  Dense fused("fused", 13, 9, /*fuse_relu=*/true);
  Dense plain("plain", 13, 9, /*fuse_relu=*/false);
  ReLU relu;
  fused.init_weights(rng_a);
  plain.init_weights(rng_b);

  const auto x = random_tensor(tensor::Shape{4, 13}, rng_x);
  const auto dy = random_tensor(tensor::Shape{4, 9}, rng_x);

  for (int step = 0; step < 3; ++step) {  // repeat: scratch reuse path
    for (Variable* v : fused.variables()) v->zero_grad();
    for (Variable* v : plain.variables()) v->zero_grad();

    tensor::Tensor y_fused = fused.forward(x, /*train=*/true);
    tensor::Tensor y_plain = relu.forward(plain.forward(x, true), true);
    expect_bitwise_equal(y_fused, y_plain, "forward");

    tensor::Tensor dx_fused = fused.backward(dy, true);
    tensor::Tensor dx_plain = plain.backward(relu.backward(dy, true), true);
    expect_bitwise_equal(dx_fused, dx_plain, "input grad");
    expect_grads_equal(fused, plain);
  }
}

TEST(FusedConv2D, ForwardBackwardBitIdenticalToConvPlusReLU) {
  common::Rng rng_a(15), rng_b(15), rng_x(16);
  Conv2D fused("fused", 3, 5, 3, 1, 1, /*fuse_relu=*/true);
  Conv2D plain("plain", 3, 5, 3, 1, 1, /*fuse_relu=*/false);
  ReLU relu;
  fused.init_weights(rng_a);
  plain.init_weights(rng_b);

  const auto x = random_tensor(tensor::Shape{2, 3, 8, 8}, rng_x);
  const auto dy = random_tensor(tensor::Shape{2, 5, 8, 8}, rng_x);

  for (int step = 0; step < 3; ++step) {
    for (Variable* v : fused.variables()) v->zero_grad();
    for (Variable* v : plain.variables()) v->zero_grad();

    tensor::Tensor y_fused = fused.forward(x, /*train=*/true);
    tensor::Tensor y_plain = relu.forward(plain.forward(x, true), true);
    expect_bitwise_equal(y_fused, y_plain, "forward");

    tensor::Tensor dx_fused = fused.backward(dy, true);
    tensor::Tensor dx_plain = plain.backward(relu.backward(dy, true), true);
    expect_bitwise_equal(dx_fused, dx_plain, "input grad");
    expect_grads_equal(fused, plain);
  }
}

TEST(FusedLayers, KindReportsFusion) {
  Dense d("d", 4, 4, /*fuse_relu=*/true);
  Dense p("p", 4, 4);
  Conv2D c("c", 1, 1, 3, 1, 1, /*fuse_relu=*/true);
  EXPECT_STREQ("DenseReLU", d.kind());
  EXPECT_STREQ("Dense", p.kind());
  EXPECT_STREQ("Conv2DReLU", c.kind());
}

}  // namespace
}  // namespace dlion::nn
