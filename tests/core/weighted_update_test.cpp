#include "core/weighted_update.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/model_zoo.h"

namespace dlion::core {
namespace {

TEST(NormalizedDbWeight, SampleProportional) {
  // n=4 workers, GBS=128: a sender with LBS 64 carries half the samples.
  EXPECT_DOUBLE_EQ(normalized_batching_weight(64, 128, 4), 2.0);
  EXPECT_DOUBLE_EQ(normalized_batching_weight(32, 128, 4), 1.0);
  EXPECT_DOUBLE_EQ(normalized_batching_weight(16, 128, 4), 0.5);
}

TEST(NormalizedDbWeight, SumOverWorkersIsN) {
  const std::size_t gbs = 100, n = 4;
  const std::vector<std::size_t> lbs = {40, 30, 20, 10};
  double sum = 0;
  for (std::size_t l : lbs) sum += normalized_batching_weight(l, gbs, n);
  EXPECT_NEAR(sum, static_cast<double>(n), 1e-12);
}

TEST(NormalizedDbWeight, EqualLbsReducesToOne) {
  EXPECT_DOUBLE_EQ(normalized_batching_weight(32, 192, 6), 1.0);
}

nn::BuiltModel tiny_model(std::uint64_t seed) {
  common::Rng rng(seed);
  return nn::make_logistic_regression(rng, 4, 2);
}

comm::GradientUpdate dense_update(const nn::Model& model, float value) {
  comm::GradientUpdate u;
  u.lbs = 32;
  const auto& vars = model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    comm::VariableGrad vg;
    vg.var_index = static_cast<std::uint32_t>(v);
    vg.dense_size = static_cast<std::uint32_t>(vars[v]->size());
    vg.values = std::vector<float>(vars[v]->size(), value);
    u.vars.push_back(std::move(vg));
  }
  return u;
}

TEST(ApplyGradientUpdate, DenseSubtractsScaledValues) {
  nn::BuiltModel bm = tiny_model(1);
  const nn::Snapshot before = bm.model.weights();
  // eta=0.1, n=4, db=2: each weight moves by -0.1/4 * 2 * 1 = -0.05.
  apply_gradient_update(bm.model, dense_update(bm.model, 1.0f), 0.1, 4, 2.0);
  const nn::Snapshot after = bm.model.weights();
  for (std::size_t v = 0; v < before.values.size(); ++v) {
    for (std::size_t i = 0; i < before.values[v].size(); ++i) {
      EXPECT_NEAR(after.values[v][i], before.values[v][i] - 0.05f, 1e-6);
    }
  }
}

TEST(ApplyGradientUpdate, SparseTouchesOnlyListedEntries) {
  nn::BuiltModel bm = tiny_model(2);
  const nn::Snapshot before = bm.model.weights();
  comm::GradientUpdate u;
  comm::VariableGrad vg;
  vg.var_index = 0;
  vg.dense_size =
      static_cast<std::uint32_t>(bm.model.variables()[0]->size());
  vg.indices = {0, 3};
  vg.values = {1.0f, -1.0f};
  u.vars.push_back(vg);
  apply_gradient_update(bm.model, u, 1.0, 1, 1.0);
  const nn::Snapshot after = bm.model.weights();
  EXPECT_NEAR(after.values[0][0], before.values[0][0] - 1.0f, 1e-6);
  EXPECT_NEAR(after.values[0][3], before.values[0][3] + 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(after.values[0][1], before.values[0][1]);
  EXPECT_FLOAT_EQ(after.values[0][2], before.values[0][2]);
}

TEST(ApplyGradientUpdate, BadVariableIndexThrows) {
  nn::BuiltModel bm = tiny_model(3);
  comm::GradientUpdate u;
  comm::VariableGrad vg;
  vg.var_index = 99;
  vg.dense_size = 1;
  vg.values = {1.0f};
  u.vars.push_back(vg);
  EXPECT_THROW(apply_gradient_update(bm.model, u, 0.1, 2, 1.0),
               std::out_of_range);
}

TEST(ApplyGradientUpdate, SizeMismatchThrows) {
  nn::BuiltModel bm = tiny_model(4);
  comm::GradientUpdate u;
  comm::VariableGrad vg;
  vg.var_index = 0;
  vg.dense_size = 3;  // wrong
  vg.values = {1.0f, 1.0f, 1.0f};
  u.vars.push_back(vg);
  EXPECT_THROW(apply_gradient_update(bm.model, u, 0.1, 2, 1.0),
               std::invalid_argument);
}

TEST(ApplyGradientUpdate, ZeroWorkersThrows) {
  nn::BuiltModel bm = tiny_model(5);
  EXPECT_THROW(
      apply_gradient_update(bm.model, dense_update(bm.model, 1.0f), 0.1, 0,
                            1.0),
      std::invalid_argument);
}

TEST(ApplyOwnGradients, MatchesManualSgd) {
  nn::BuiltModel bm = tiny_model(6);
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(2.0f);
  const nn::Snapshot before = bm.model.weights();
  apply_own_gradients(bm.model, 0.5, 4);  // -0.5/4 * 2 = -0.25
  const nn::Snapshot after = bm.model.weights();
  for (std::size_t v = 0; v < before.values.size(); ++v) {
    for (std::size_t i = 0; i < before.values[v].size(); ++i) {
      EXPECT_NEAR(after.values[v][i], before.values[v][i] - 0.25f, 1e-6);
    }
  }
}

TEST(Eq7ReducesToEq4, EqualLbsMakesWeightedAndPlainIdentical) {
  // With identical LBS everywhere (GBS = n * LBS), db = 1 and Eq. 7 must
  // equal Eq. 4.
  nn::BuiltModel weighted = tiny_model(7);
  nn::BuiltModel plain = tiny_model(7);
  const comm::GradientUpdate u = dense_update(weighted.model, 0.7f);
  const double db_weighted = normalized_batching_weight(32, 6 * 32, 6, true);
  const double db_plain = normalized_batching_weight(32, 6 * 32, 6, false);
  apply_gradient_update(weighted.model, u, 0.1, 6, db_weighted);
  apply_gradient_update(plain.model, u, 0.1, 6, db_plain);
  const nn::Snapshot a = weighted.model.weights();
  const nn::Snapshot b = plain.model.weights();
  for (std::size_t v = 0; v < a.values.size(); ++v) {
    for (std::size_t i = 0; i < a.values[v].size(); ++i) {
      EXPECT_FLOAT_EQ(a.values[v][i], b.values[v][i]);
    }
  }
}

}  // namespace
}  // namespace dlion::core
