#include "core/dkt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "nn/model_zoo.h"

namespace dlion::core {
namespace {

// A received weight snapshot holding `value` in every weight of `model`.
comm::WeightPayload filled_payload(const nn::Model& model, float value) {
  comm::WeightPayload p;
  for (const nn::Variable* v : model.variables()) {
    p.parts.emplace_back(std::vector<float>(v->size(), value));
  }
  return p;
}

DktConfig best2all() {
  DktConfig cfg;
  cfg.mode = DktMode::kBest2All;
  cfg.period_iters = 10;
  cfg.loss_window = 3;
  cfg.lambda = 0.5;
  return cfg;
}

TEST(Dkt, LossWindowAverages) {
  DktModule dkt(best2all(), 0, 3);
  EXPECT_TRUE(std::isinf(dkt.avg_loss()));
  dkt.record_loss(1.0);
  dkt.record_loss(2.0);
  dkt.record_loss(3.0);
  EXPECT_DOUBLE_EQ(dkt.avg_loss(), 2.0);
  dkt.record_loss(7.0);  // window 3: {2, 3, 7}
  EXPECT_DOUBLE_EQ(dkt.avg_loss(), 4.0);
}

TEST(Dkt, BoundaryEveryPeriod) {
  DktModule dkt(best2all(), 0, 3);
  EXPECT_FALSE(dkt.is_boundary(0));
  EXPECT_FALSE(dkt.is_boundary(5));
  EXPECT_TRUE(dkt.is_boundary(10));
  EXPECT_FALSE(dkt.is_boundary(11));
  EXPECT_TRUE(dkt.is_boundary(20));
}

TEST(Dkt, NoneModeHasNoBoundaries) {
  DktConfig cfg = best2all();
  cfg.mode = DktMode::kNone;
  DktModule dkt(cfg, 0, 3);
  EXPECT_FALSE(dkt.is_boundary(10));
  EXPECT_FALSE(dkt.should_request(10));
}

TEST(Dkt, EarlyOnlyVariantStops) {
  DktConfig cfg = best2all();
  cfg.early_only_iters = 25;
  DktModule dkt(cfg, 0, 3);
  EXPECT_TRUE(dkt.is_boundary(10));
  EXPECT_TRUE(dkt.is_boundary(20));
  EXPECT_FALSE(dkt.is_boundary(30));
}

TEST(Dkt, BestWorkerTracksReports) {
  DktModule dkt(best2all(), 0, 3);
  dkt.record_loss(5.0);
  dkt.record_peer_loss(1, 2.0, 10);
  dkt.record_peer_loss(2, 8.0, 10);
  EXPECT_EQ(dkt.best_worker(), 1u);
  EXPECT_EQ(dkt.worst_worker(), 2u);
  dkt.record_peer_loss(1, 9.0, 20);
  EXPECT_EQ(dkt.best_worker(), 0u);
}

TEST(Dkt, WorstIgnoresUnreported) {
  DktModule dkt(best2all(), 0, 4);
  dkt.record_loss(1.0);
  dkt.record_peer_loss(2, 3.0, 10);
  // Workers 1, 3 never reported (+inf); worst must be a finite one.
  EXPECT_EQ(dkt.worst_worker(), 2u);
}

TEST(Dkt, Best2AllEveryoneButBestRequests) {
  DktModule self0(best2all(), 0, 3);
  self0.record_loss(5.0);
  self0.record_peer_loss(1, 1.0, 10);
  self0.record_peer_loss(2, 9.0, 10);
  EXPECT_TRUE(self0.should_request(10));  // worker 1 is best, pull from it

  DktModule self1(best2all(), 1, 3);
  self1.record_loss(1.0);
  self1.record_peer_loss(0, 5.0, 10);
  self1.record_peer_loss(2, 9.0, 10);
  EXPECT_FALSE(self1.should_request(10));  // is itself the best
}

TEST(Dkt, Best2WorstOnlyWorstRequests) {
  DktConfig cfg = best2all();
  cfg.mode = DktMode::kBest2Worst;
  DktModule middle(cfg, 0, 3);
  middle.record_loss(5.0);
  middle.record_peer_loss(1, 1.0, 10);
  middle.record_peer_loss(2, 9.0, 10);
  EXPECT_FALSE(middle.should_request(10));  // not the worst

  DktModule worst(cfg, 2, 3);
  worst.record_loss(9.0);
  worst.record_peer_loss(0, 5.0, 10);
  worst.record_peer_loss(1, 1.0, 10);
  EXPECT_TRUE(worst.should_request(10));
}

TEST(Dkt, MergeLambdaInterpolates) {
  common::Rng rng(1);
  nn::BuiltModel bm = nn::make_logistic_regression(rng, 4, 2);
  const comm::WeightPayload best = filled_payload(bm.model, 1.0f);
  for (nn::Variable* v : bm.model.variables()) v->value().fill(0.0f);

  DktConfig cfg = best2all();
  cfg.lambda = 0.25;
  DktModule dkt(cfg, 0, 2);
  dkt.merge(bm.model, best);
  for (nn::Variable* v : bm.model.variables()) {
    for (std::size_t i = 0; i < v->size(); ++i) {
      EXPECT_FLOAT_EQ(v->value()[i], 0.25f);  // w - 0.25*(w - 1) = 0.25
    }
  }
}

TEST(Dkt, MergeLambdaOneReplaces) {
  common::Rng rng(2);
  nn::BuiltModel bm = nn::make_logistic_regression(rng, 4, 2);
  const comm::WeightPayload best = filled_payload(bm.model, 3.0f);
  DktConfig cfg = best2all();
  cfg.lambda = 1.0;
  DktModule dkt(cfg, 0, 2);
  dkt.merge(bm.model, best);
  for (nn::Variable* v : bm.model.variables()) {
    for (std::size_t i = 0; i < v->size(); ++i) {
      EXPECT_FLOAT_EQ(v->value()[i], 3.0f);
    }
  }
}

TEST(Dkt, MergeLambdaZeroIsNoop) {
  common::Rng rng(3);
  nn::BuiltModel bm = nn::make_logistic_regression(rng, 4, 2);
  const nn::Snapshot before = bm.model.weights();
  const comm::WeightPayload best = filled_payload(bm.model, 9.0f);
  DktConfig cfg = best2all();
  cfg.lambda = 0.0;
  DktModule dkt(cfg, 0, 2);
  dkt.merge(bm.model, best);
  const nn::Snapshot after = bm.model.weights();
  for (std::size_t v = 0; v < before.values.size(); ++v) {
    for (std::size_t i = 0; i < before.values[v].size(); ++i) {
      EXPECT_FLOAT_EQ(after.values[v][i], before.values[v][i]);
    }
  }
}

TEST(Dkt, MergeCountMismatchThrows) {
  common::Rng rng(4);
  nn::BuiltModel bm = nn::make_logistic_regression(rng, 4, 2);
  const comm::WeightPayload bad;
  DktModule dkt(best2all(), 0, 2);
  EXPECT_THROW(dkt.merge(bm.model, bad), std::invalid_argument);
}

TEST(Dkt, ExpiryIgnoresStalePeerReports) {
  DktConfig cfg = best2all();
  cfg.peer_loss_expiry_iters = 20;
  DktModule dkt(cfg, 0, 3);
  dkt.record_loss(5.0);
  dkt.record_peer_loss(1, 1.0, 10);   // best, stamped at iter 10
  dkt.record_peer_loss(2, 3.0, 25);   // fresher but worse
  EXPECT_EQ(dkt.best_worker(25), 1u);  // age 15 <= 20: still counts
  EXPECT_EQ(dkt.best_worker(31), 2u);  // age 21 > 20: worker 1 expired
  // Re-reporting refreshes the stamp.
  dkt.record_peer_loss(1, 1.0, 31);
  EXPECT_EQ(dkt.best_worker(31), 1u);
}

TEST(Dkt, ExpiryZeroNeverExpires) {
  // Seed behaviour: expiry disabled means even ancient reports stay live.
  DktModule dkt(best2all(), 0, 3);
  ASSERT_EQ(dkt.config().peer_loss_expiry_iters, 0u);
  dkt.record_loss(5.0);
  dkt.record_peer_loss(1, 1.0, 0);
  EXPECT_EQ(dkt.best_worker(1000000), 1u);
}

TEST(Dkt, ExpiryWithoutNowIterKeepsEverything) {
  // Callers that do not pass a clock (seed call sites) see no expiry even
  // when the config enables it.
  DktConfig cfg = best2all();
  cfg.peer_loss_expiry_iters = 5;
  DktModule dkt(cfg, 0, 3);
  dkt.record_loss(5.0);
  dkt.record_peer_loss(1, 1.0, 0);
  EXPECT_EQ(dkt.best_worker(), 1u);
  EXPECT_EQ(dkt.best_worker(100), 0u);  // with a clock it does expire
}

TEST(Dkt, ExcludedPeersAreSkipped) {
  DktModule dkt(best2all(), 0, 3);
  dkt.record_loss(5.0);
  dkt.record_peer_loss(1, 1.0, 10);
  dkt.record_peer_loss(2, 3.0, 10);
  std::vector<bool> excluded(3, false);
  excluded[1] = true;  // e.g. suspected dead or pull timed out
  EXPECT_EQ(dkt.best_worker(std::nullopt, excluded), 2u);
  excluded[2] = true;
  EXPECT_EQ(dkt.best_worker(std::nullopt, excluded), 0u);  // falls back to self
}

TEST(Dkt, WorstRespectsExpiryAndExclusion) {
  DktConfig cfg = best2all();
  cfg.peer_loss_expiry_iters = 10;
  DktModule dkt(cfg, 0, 4);
  dkt.record_loss(1.0);
  dkt.record_peer_loss(2, 9.0, 0);   // worst but stale by iter 20
  dkt.record_peer_loss(3, 4.0, 18);  // fresh
  EXPECT_EQ(dkt.worst_worker(20), 3u);
  std::vector<bool> excluded(4, false);
  excluded[3] = true;
  EXPECT_EQ(dkt.worst_worker(20, excluded), 0u);  // only self remains
}

TEST(Dkt, InvalidConfigThrows) {
  DktConfig zero_period = best2all();
  zero_period.period_iters = 0;
  EXPECT_THROW(DktModule(zero_period, 0, 2), std::invalid_argument);
  DktConfig bad_lambda = best2all();
  bad_lambda.lambda = 1.5;
  EXPECT_THROW(DktModule(bad_lambda, 0, 2), std::invalid_argument);
  EXPECT_THROW(DktModule(best2all(), 5, 2), std::invalid_argument);
}

}  // namespace
}  // namespace dlion::core
