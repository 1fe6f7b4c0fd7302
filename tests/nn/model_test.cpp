#include "nn/model.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"

namespace dlion::nn {
namespace {

TEST(Model, VariableOrderIsDeterministic) {
  common::Rng a(1), b(1);
  const BuiltModel m1 = make_cipher_lite(a);
  const BuiltModel m2 = make_cipher_lite(b);
  ASSERT_EQ(m1.model.num_variables(), m2.model.num_variables());
  for (std::size_t i = 0; i < m1.model.num_variables(); ++i) {
    EXPECT_EQ(m1.model.variables()[i]->name(),
              m2.model.variables()[i]->name());
  }
}

TEST(Model, SameSeedSameWeights) {
  common::Rng a(5), b(5);
  const BuiltModel m1 = make_cipher_lite(a);
  const BuiltModel m2 = make_cipher_lite(b);
  const Snapshot s1 = m1.model.weights(), s2 = m2.model.weights();
  ASSERT_EQ(s1.values.size(), s2.values.size());
  for (std::size_t v = 0; v < s1.values.size(); ++v) {
    for (std::size_t i = 0; i < s1.values[v].size(); ++i) {
      EXPECT_FLOAT_EQ(s1.values[v][i], s2.values[v][i]);
    }
  }
}

TEST(Model, SnapshotRoundTrip) {
  common::Rng rng(2);
  BuiltModel bm = make_cipher_lite(rng);
  const Snapshot original = bm.model.weights();
  for (Variable* v : bm.model.variables()) v->value().fill(0.0f);
  bm.model.set_weights(original);
  const Snapshot restored = bm.model.weights();
  for (std::size_t v = 0; v < original.values.size(); ++v) {
    for (std::size_t i = 0; i < original.values[v].size(); ++i) {
      EXPECT_FLOAT_EQ(restored.values[v][i], original.values[v][i]);
    }
  }
}

TEST(Model, SetWeightsCountMismatchThrows) {
  common::Rng rng(2);
  BuiltModel bm = make_cipher_lite(rng);
  Snapshot bad;
  EXPECT_THROW(bm.model.set_weights(bad), std::invalid_argument);
}

TEST(Model, NumParamsMatchesSnapshot) {
  common::Rng rng(2);
  const BuiltModel bm = make_cipher_lite(rng);
  EXPECT_EQ(bm.model.num_params(), bm.model.weights().num_params());
  EXPECT_GT(bm.model.num_params(), 0u);
}

TEST(Model, ZeroGradsClearsAll) {
  common::Rng rng(2);
  BuiltModel bm = make_cipher_lite(rng);
  data::TrainTest data = data::make_blobs(1, 64, 10, 64, 16);
  auto batch = data::gather(data.train, std::vector<std::size_t>{0, 1, 2, 3});
  (void)bm.model.compute_gradients(batch.images, batch.labels);
  bm.model.zero_grads();
  for (Variable* v : bm.model.variables()) {
    for (std::size_t i = 0; i < v->size(); ++i) {
      EXPECT_FLOAT_EQ(v->grad()[i], 0.0f);
    }
  }
}

// compute_gradients skips the input gradient of the first layer with
// variables (and every layer below it); the variable grads must still equal
// those of a backward pass through every layer, bit for bit.
TEST(Model, SkippedInputGradientKeepsGradsBitIdentical) {
  for (const char* name : {"cipher-lite", "cipher", "mobilenet-20"}) {
    common::Rng ra(11), rb(11), rx(12);
    BuiltModel skipped = make_model(name, ra);
    BuiltModel full = make_model(name, rb);
    const ModelProfile& pr = skipped.profile;
    const std::size_t batch = 3;
    tensor::Tensor x(
        tensor::Shape{batch, pr.channels, pr.height, pr.width});
    for (float& v : x.span()) v = static_cast<float>(rx.normal());
    const std::vector<std::int32_t> labels = {0, 1, 2};

    (void)skipped.model.compute_gradients(x, labels);

    full.model.zero_grads();
    const LossResult res = softmax_cross_entropy(full.model.forward(x, true),
                                                 labels);
    tensor::Tensor grad = res.grad_logits;
    for (std::size_t i = full.model.num_layers(); i-- > 0;) {
      grad = full.model.layer(i).backward(grad, true);
    }

    ASSERT_EQ(skipped.model.num_variables(), full.model.num_variables());
    for (std::size_t v = 0; v < full.model.num_variables(); ++v) {
      const tensor::Tensor& g1 = skipped.model.variables()[v]->grad();
      const tensor::Tensor& g2 = full.model.variables()[v]->grad();
      ASSERT_EQ(g1.size(), g2.size());
      EXPECT_EQ(0, std::memcmp(g1.data(), g2.data(), g1.size() * sizeof(float)))
          << name << " " << full.model.variables()[v]->name();
    }
  }
}

// The evaluation contract (nn/layer.h): backward pairs with the last
// training forward, and an evaluation forward of another batch size in
// between leaves that state intact. Every zoo model's variable gradients
// must equal, bit for bit, those of the same sequence without it.
TEST(Model, EvaluationForwardLeavesTrainingStateIntact) {
  for (const char* name :
       {"mobilenet-20", "cipher", "cipher-lite", "mlp", "logreg"}) {
    SCOPED_TRACE(name);
    common::Rng ra(13), rb(13), rx(14);
    BuiltModel with_eval = make_model(name, ra);
    BuiltModel plain = make_model(name, rb);
    const ModelProfile& pr = plain.profile;
    tensor::Tensor x(tensor::Shape{3, pr.channels, pr.height, pr.width});
    tensor::Tensor y(tensor::Shape{5, pr.channels, pr.height, pr.width});
    for (float& v : x.span()) v = static_cast<float>(rx.normal());
    for (float& v : y.span()) v = static_cast<float>(rx.normal());
    const std::vector<std::int32_t> labels = {0, 1, 2};

    for (BuiltModel* bm : {&with_eval, &plain}) {
      bm->model.zero_grads();
      tensor::Tensor grad =
          softmax_cross_entropy(bm->model.forward(x, true), labels)
              .grad_logits;
      if (bm == &with_eval) (void)bm->model.forward(y, false);
      for (std::size_t i = bm->model.num_layers(); i-- > 0;) {
        grad = bm->model.layer(i).backward(grad, true);
      }
    }
    for (std::size_t v = 0; v < plain.model.num_variables(); ++v) {
      const tensor::Tensor& g1 = with_eval.model.variables()[v]->grad();
      const tensor::Tensor& g2 = plain.model.variables()[v]->grad();
      ASSERT_EQ(g1.size(), g2.size());
      EXPECT_EQ(0, std::memcmp(g1.data(), g2.data(), g1.size() * sizeof(float)))
          << plain.model.variables()[v]->name();
    }
  }
}

TEST(Model, SgdTrainsBlobsToHighAccuracy) {
  common::Rng rng(3);
  BuiltModel bm = make_logistic_regression(rng, 16, 4);
  data::TrainTest data = data::make_blobs(7, 16, 4, 512, 256);
  data::MinibatchSampler sampler(data.train, 9);
  for (int iter = 0; iter < 300; ++iter) {
    const data::Batch batch = sampler.next(32);
    (void)bm.model.compute_gradients(batch.images, batch.labels);
    bm.model.sgd_step(0.2f);
  }
  std::vector<std::size_t> all(data.test.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const data::Batch test = data::gather(data.test, all);
  const LossResult res = bm.model.evaluate(test.images, test.labels);
  EXPECT_GT(res.accuracy, 0.9);
}

TEST(Model, EvaluateDoesNotTouchGradients) {
  common::Rng rng(3);
  BuiltModel bm = make_logistic_regression(rng, 8, 2);
  data::TrainTest data = data::make_blobs(7, 8, 2, 32, 8);
  bm.model.zero_grads();
  auto batch = data::gather(data.test, std::vector<std::size_t>{0, 1});
  (void)bm.model.evaluate(batch.images, batch.labels);
  for (Variable* v : bm.model.variables()) {
    for (std::size_t i = 0; i < v->size(); ++i) {
      EXPECT_FLOAT_EQ(v->grad()[i], 0.0f);
    }
  }
}

class ModelZooTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelZooTest, BuildsAndRunsForward) {
  common::Rng rng(1);
  BuiltModel bm = make_model(GetParam(), rng);
  EXPECT_GT(bm.model.num_params(), 0u);
  EXPECT_GT(bm.profile.nominal_bytes, 0u);
  EXPECT_GT(bm.profile.nominal_flops_per_sample, 0.0);
  tensor::Tensor x(tensor::Shape{2, bm.profile.channels, bm.profile.height,
                                 bm.profile.width});
  const tensor::Tensor logits = bm.model.forward(x, false);
  ASSERT_EQ(logits.shape().rank(), 2u);
  EXPECT_EQ(logits.shape()[0], 2u);
  EXPECT_EQ(logits.shape()[1], bm.profile.classes);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZooTest,
                         ::testing::Values("cipher", "cipher-lite",
                                           "mobilenet", "mobilenet-20",
                                           "logreg", "mlp"));

TEST(ModelZoo, UnknownNameThrows) {
  common::Rng rng(1);
  EXPECT_THROW(make_model("vgg", rng), std::invalid_argument);
}

TEST(ModelZoo, CipherCnnMatchesPaperArchitecture) {
  common::Rng rng(1);
  const BuiltModel bm = make_cipher_cnn(rng);
  // 3 conv + 2 fc = 5 weight-bearing layers = 10 variables.
  EXPECT_EQ(bm.model.num_variables(), 10u);
  EXPECT_EQ(bm.profile.nominal_bytes, 5'000'000u);
  EXPECT_EQ(bm.profile.classes, 10u);
}

TEST(ModelZoo, MobileNetProfileMatchesPaper) {
  common::Rng rng(1);
  const BuiltModel bm = make_mobilenet_lite(rng);
  EXPECT_EQ(bm.profile.nominal_bytes, 17'000'000u);
  EXPECT_EQ(bm.profile.classes, 100u);
}

}  // namespace
}  // namespace dlion::nn
