#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"

namespace dlion::nn {
namespace {

// Numerical gradient check for one layer: compares the analytic gradients
// (input + every variable) against central differences of a scalar loss
// L = sum(w_out .* forward(x)).
void gradcheck_layer(Layer& layer, const tensor::Tensor& input,
                     double tol = 2e-2) {
  common::Rng rng(7);
  tensor::Tensor out = layer.forward(input, /*train=*/true);
  tensor::Tensor loss_weights(out.shape());
  for (auto& v : loss_weights.span()) {
    v = static_cast<float>(rng.normal());
  }

  auto loss_of = [&](const tensor::Tensor& x) {
    tensor::Tensor y = layer.forward(x, /*train=*/true);
    double l = 0;
    for (std::size_t i = 0; i < y.size(); ++i) l += y[i] * loss_weights[i];
    return l;
  };

  // Analytic gradients.
  for (Variable* v : layer.variables()) v->zero_grad();
  (void)layer.forward(input, /*train=*/true);
  tensor::Tensor grad_in = layer.backward(loss_weights, true);

  // Numerical input gradient.
  const float eps = 1e-3f;
  tensor::Tensor x = input;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of(x);
    x[i] = orig - eps;
    const double lm = loss_of(x);
    x[i] = orig;
    const double num = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grad_in[i], num, tol) << "input grad at " << i;
  }

  // Numerical variable gradients (sampled to bound runtime).
  for (Variable* var : layer.variables()) {
    // Re-run analytic pass to have fresh grads for this check.
    var->zero_grad();
    (void)layer.forward(input, /*train=*/true);
    (void)layer.backward(loss_weights, true);
    const std::size_t stride = std::max<std::size_t>(1, var->size() / 24);
    for (std::size_t i = 0; i < var->size(); i += stride) {
      float& w = var->value()[i];
      const float orig = w;
      w = orig + eps;
      const double lp = loss_of(input);
      w = orig - eps;
      const double lm = loss_of(input);
      w = orig;
      const double num = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(var->grad()[i], num, tol)
          << var->name() << " grad at " << i;
    }
  }
}

tensor::Tensor random_tensor(tensor::Shape shape, std::uint64_t seed) {
  common::Rng rng(seed);
  tensor::Tensor t(std::move(shape));
  for (auto& v : t.span()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(Dense, ForwardMatchesManual) {
  Dense layer("fc", 2, 2);
  // W = [[1,2],[3,4]], b = [10, 20]
  layer.variables()[0]->value() = tensor::Tensor(tensor::Shape{2, 2},
                                                 {1, 2, 3, 4});
  layer.variables()[1]->value() = tensor::Tensor(tensor::Shape{2}, {10, 20});
  tensor::Tensor x(tensor::Shape{1, 2}, {1, 1});
  const tensor::Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 14.0f);  // 1+3+10
  EXPECT_FLOAT_EQ(y[1], 26.0f);  // 2+4+20
}

TEST(Dense, GradCheck) {
  Dense layer("fc", 3, 4);
  common::Rng rng(1);
  layer.init_weights(rng);
  gradcheck_layer(layer, random_tensor(tensor::Shape{2, 3}, 2));
}

TEST(Dense, RejectsWrongInputShape) {
  Dense layer("fc", 3, 4);
  tensor::Tensor bad(tensor::Shape{2, 5});
  EXPECT_THROW(layer.forward(bad, false), std::invalid_argument);
}

TEST(Dense, VariableNamesAndSizes) {
  Dense layer("enc", 3, 4);
  const auto vars = layer.variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0]->name(), "enc/W");
  EXPECT_EQ(vars[1]->name(), "enc/b");
  EXPECT_EQ(vars[0]->size(), 12u);
  EXPECT_EQ(vars[1]->size(), 4u);
}

TEST(Conv2D, GradCheck) {
  Conv2D layer("conv", 2, 3, 3, 1, 1);
  common::Rng rng(1);
  layer.init_weights(rng);
  gradcheck_layer(layer, random_tensor(tensor::Shape{2, 2, 4, 4}, 3));
}

TEST(Conv2D, StridedGradCheck) {
  Conv2D layer("conv", 1, 2, 3, 2, 1);
  common::Rng rng(2);
  layer.init_weights(rng);
  gradcheck_layer(layer, random_tensor(tensor::Shape{1, 1, 5, 5}, 4));
}

TEST(Conv2D, OutputShape) {
  Conv2D layer("conv", 1, 10, 5, 1, 2);
  common::Rng rng(1);
  layer.init_weights(rng);
  const tensor::Tensor y =
      layer.forward(random_tensor(tensor::Shape{3, 1, 28, 28}, 5), false);
  EXPECT_TRUE(y.shape() == tensor::Shape({3, 10, 28, 28}));
}

TEST(DepthwiseConv2D, GradCheck) {
  DepthwiseConv2D layer("dw", 2, 3, 1, 1);
  common::Rng rng(1);
  layer.init_weights(rng);
  gradcheck_layer(layer, random_tensor(tensor::Shape{1, 2, 4, 4}, 6));
}

TEST(DepthwiseConv2D, ChannelsStayIndependent) {
  DepthwiseConv2D layer("dw", 2, 1, 1, 0);
  layer.variables()[0]->value() = tensor::Tensor(tensor::Shape{2, 1}, {2, 3});
  layer.variables()[1]->value().fill(0.0f);
  tensor::Tensor x(tensor::Shape{1, 2, 1, 1}, {1, 1});
  const tensor::Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU layer;
  tensor::Tensor x(tensor::Shape{4}, {-1, 0, 2, -3});
  const tensor::Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU layer;
  tensor::Tensor x(tensor::Shape{3}, {-1, 1, 2});
  (void)layer.forward(x, true);
  tensor::Tensor g(tensor::Shape{3}, {5, 5, 5});
  const tensor::Tensor gi = layer.backward(g, true);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);
  EXPECT_FLOAT_EQ(gi[2], 5.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten layer;
  tensor::Tensor x = random_tensor(tensor::Shape{2, 3, 4, 5}, 7);
  const tensor::Tensor y = layer.forward(x, false);
  EXPECT_TRUE(y.shape() == tensor::Shape({2, 60}));
  const tensor::Tensor back = layer.backward(y, true);
  EXPECT_TRUE(back.shape() == x.shape());
}

TEST(Dropout, InferencePassesThrough) {
  Dropout layer(0.5, 1);
  tensor::Tensor x = random_tensor(tensor::Shape{2, 8}, 8);
  const tensor::Tensor y = layer.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainZeroesApproximatelyPFraction) {
  Dropout layer(0.5, 2);
  tensor::Tensor x(tensor::Shape{10000}, 1.0f);
  const tensor::Tensor y = layer.forward(x, /*train=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.03);
}

TEST(Dropout, KeptUnitsAreRescaled) {
  Dropout layer(0.5, 3);
  tensor::Tensor x(tensor::Shape{100}, 1.0f);
  const tensor::Tensor y = layer.forward(x, /*train=*/true);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] != 0.0f) {
      EXPECT_FLOAT_EQ(y[i], 2.0f);
    }
  }
}

TEST(Dropout, InvalidProbabilityThrows) {
  EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1, 1), std::invalid_argument);
}

TEST(MaxPool2D, ForwardPicksMaxima) {
  MaxPool2D layer(2);
  tensor::Tensor x(tensor::Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  const tensor::Tensor y = layer.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D layer(2);
  tensor::Tensor x(tensor::Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  (void)layer.forward(x, true);
  tensor::Tensor g(tensor::Shape{1, 1, 1, 1}, {7});
  const tensor::Tensor gi = layer.backward(g, true);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 7.0f);
  EXPECT_FLOAT_EQ(gi[2], 0.0f);
}

TEST(MaxPool2D, OutputShape) {
  MaxPool2D layer(2);
  const tensor::Tensor y =
      layer.forward(random_tensor(tensor::Shape{2, 3, 8, 8}, 9), false);
  EXPECT_TRUE(y.shape() == tensor::Shape({2, 3, 4, 4}));
}

TEST(GlobalAvgPool, ForwardAverages) {
  GlobalAvgPool layer;
  tensor::Tensor x(tensor::Shape{1, 2, 1, 2}, {1, 3, 10, 20});
  const tensor::Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 15.0f);
}

TEST(GlobalAvgPool, BackwardSpreadsUniformly) {
  GlobalAvgPool layer;
  tensor::Tensor x = random_tensor(tensor::Shape{1, 1, 2, 2}, 10);
  (void)layer.forward(x, true);
  tensor::Tensor g(tensor::Shape{1, 1}, {8});
  const tensor::Tensor gi = layer.backward(g, true);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gi[i], 2.0f);
}

}  // namespace
}  // namespace dlion::nn
