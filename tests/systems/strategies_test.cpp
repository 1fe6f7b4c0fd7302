#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "nn/model_zoo.h"
#include "systems/ako.h"
#include "systems/baseline.h"
#include "systems/gaia.h"
#include "systems/hop.h"
#include "systems/registry.h"

namespace dlion::systems {
namespace {

nn::BuiltModel model_with_gradients(std::uint64_t seed, float scale = 1.0f) {
  common::Rng rng(seed);
  nn::BuiltModel bm = nn::make_mlp(rng, 8, 8, 4);
  common::Rng grad_rng(seed + 100);
  for (nn::Variable* v : bm.model.variables()) {
    for (auto& g : v->grad().span()) {
      g = scale * static_cast<float>(grad_rng.normal());
    }
  }
  return bm;
}

core::LinkContext ctx_for(std::size_t peer, std::uint64_t iteration) {
  core::LinkContext ctx;
  ctx.self = 0;
  ctx.peer = peer;
  ctx.iteration = iteration;
  ctx.available_mbps = 100.0;
  ctx.iterations_per_sec = 1.0;
  ctx.byte_scale = 1.0;
  ctx.learning_rate = 0.1;
  ctx.n_workers = 4;
  return ctx;
}

std::size_t total_entries(const comm::VarList& vars) {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

TEST(Baseline, SendsWholeGradientsDense) {
  nn::BuiltModel bm = model_with_gradients(1);
  BaselineStrategy s;
  const auto out = s.generate(bm.model, ctx_for(1, 0));
  EXPECT_EQ(total_entries(out), bm.model.num_params());
  for (const auto& vg : out) EXPECT_TRUE(vg.is_dense());
}

TEST(Hop, GradientSideIsBaseline) {
  nn::BuiltModel bm = model_with_gradients(2);
  HopStrategy s;
  EXPECT_STREQ(s.name(), "hop");
  const auto out = s.generate(bm.model, ctx_for(1, 0));
  EXPECT_EQ(total_entries(out), bm.model.num_params());
  const core::SyncPolicy policy = hop_sync_policy();
  EXPECT_EQ(policy.staleness_bound, 5u);
  EXPECT_EQ(policy.backup_workers, 1u);
}

TEST(Gaia, LargeGradientsPassSmallOnesAccumulate) {
  nn::BuiltModel bm = model_with_gradients(3, /*scale=*/100.0f);
  GaiaStrategy s(1.0);
  const auto big = s.generate(bm.model, ctx_for(1, 0));
  EXPECT_GT(total_entries(big), bm.model.num_params() / 2);

  nn::BuiltModel tiny = model_with_gradients(3, /*scale=*/1e-8f);
  GaiaStrategy s2(1.0);
  const auto small = s2.generate(tiny.model, ctx_for(1, 0));
  EXPECT_EQ(total_entries(small), 0u);
}

TEST(Gaia, AccumulationEventuallySends) {
  // Gradients too small to pass on one iteration must accumulate and cross
  // the significance threshold after enough iterations - no update is ever
  // dropped, only delayed.
  nn::BuiltModel bm = model_with_gradients(4, 0.0f);
  // Constant gradient of 0.001 on every entry; weights ~O(1), S=1% needs
  // an accumulated update of ~0.01/(eta/n scale 0.025) = 0.4 -> many iters.
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(0.001f);
  GaiaStrategy s(1.0);
  std::size_t sent_total = 0;
  for (std::uint64_t it = 0; it < 2000 && sent_total == 0; ++it) {
    sent_total += total_entries(s.generate(bm.model, ctx_for(1, it)));
  }
  EXPECT_GT(sent_total, 0u);
}

TEST(Gaia, SentMassMatchesAccumulatedGradients) {
  // Conservation: what Gaia sends for an entry equals the sum of the raw
  // gradients accumulated since that entry was last sent.
  nn::BuiltModel bm = model_with_gradients(5, 0.0f);
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(0.5f);
  GaiaStrategy s(1.0);
  // 0.5 per iteration accumulates; first send should carry k*0.5 exactly.
  comm::VarList out;
  std::uint64_t iters = 0;
  for (std::uint64_t it = 0; it < 100; ++it) {
    out = s.generate(bm.model, ctx_for(1, it));
    ++iters;
    if (total_entries(out) > 0) break;
  }
  ASSERT_GT(total_entries(out), 0u);
  for (const auto& vg : out) {
    for (float v : vg.values) {
      EXPECT_NEAR(v, 0.5f * static_cast<float>(iters), 1e-4);
    }
  }
}

TEST(Gaia, PerPeerStateIsIndependent) {
  nn::BuiltModel bm = model_with_gradients(6, 100.0f);
  GaiaStrategy s(1.0);
  const auto to_peer1 = s.generate(bm.model, ctx_for(1, 0));
  const auto to_peer2 = s.generate(bm.model, ctx_for(2, 0));
  // Both peers get the same significant entries: sending to peer 1 must not
  // consume peer 2's accumulator.
  EXPECT_EQ(total_entries(to_peer1), total_entries(to_peer2));
}

TEST(Ako, RoundRobinCoversAllIndices) {
  nn::BuiltModel bm = model_with_gradients(7);
  AkoStrategy s(/*partitions=*/4);
  std::map<std::uint32_t, std::set<std::uint32_t>> seen;  // var -> indices
  for (std::uint64_t it = 0; it < 4; ++it) {
    for (nn::Variable* v : bm.model.variables()) v->grad().fill(1.0f);
    const auto out = s.generate(bm.model, ctx_for(1, it));
    for (const auto& vg : out) {
      for (std::uint32_t i : vg.indices) seen[vg.var_index].insert(i);
    }
  }
  const auto& vars = bm.model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    EXPECT_EQ(seen[static_cast<std::uint32_t>(v)].size(), vars[v]->size())
        << "variable " << v << " not fully covered in p iterations";
  }
}

TEST(Ako, BlocksAreDisjointAcrossIterationsOfOneCycle) {
  nn::BuiltModel bm = model_with_gradients(8);
  AkoStrategy s(4);
  std::set<std::uint32_t> first, second;
  const auto out0 = s.generate(bm.model, ctx_for(1, 0));
  for (const auto& vg : out0) {
    if (vg.var_index == 0) first.insert(vg.indices.begin(), vg.indices.end());
  }
  const auto out1 = s.generate(bm.model, ctx_for(1, 1));
  for (const auto& vg : out1) {
    if (vg.var_index == 0) second.insert(vg.indices.begin(),
                                         vg.indices.end());
  }
  for (std::uint32_t i : first) EXPECT_FALSE(second.count(i));
}

TEST(Ako, AccumulatedHistoryIsCarried) {
  nn::BuiltModel bm = model_with_gradients(9, 0.0f);
  AkoStrategy s(2);
  // Iteration 0 sends block 0 with one iteration of gradient; iteration 1
  // sends block 1 carrying TWO iterations of accumulated gradient.
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(1.0f);
  (void)s.generate(bm.model, ctx_for(1, 0));
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(1.0f);
  const auto out = s.generate(bm.model, ctx_for(1, 1));
  bool checked = false;
  for (const auto& vg : out) {
    for (float v : vg.values) {
      EXPECT_FLOAT_EQ(v, 2.0f);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(Ako, AutoPartitionCountDerivedFromLink) {
  nn::BuiltModel bm = model_with_gradients(10);
  AkoStrategy s;  // auto p
  core::LinkContext slow = ctx_for(1, 0);
  slow.available_mbps = 0.0001;
  (void)s.generate(bm.model, slow);
  const std::size_t p_slow = s.partitions_for(1);
  AkoStrategy s2;
  core::LinkContext fast = ctx_for(1, 0);
  fast.available_mbps = 10000.0;
  (void)s2.generate(bm.model, fast);
  const std::size_t p_fast = s2.partitions_for(1);
  EXPECT_GT(p_slow, p_fast);
  EXPECT_GE(p_fast, 1u);
  EXPECT_LE(p_slow, 64u);
}

TEST(Registry, AllSystemsConstruct) {
  for (const std::string name :
       {"dlion", "baseline", "hop", "gaia", "ako", "maxn", "dlion-no-wu",
        "dlion-no-dbwu"}) {
    const SystemSpec spec = make_system(name);
    EXPECT_EQ(spec.name, name);
    ASSERT_TRUE(spec.strategy_factory);
    ASSERT_TRUE(spec.configure);
    EXPECT_NE(spec.strategy_factory(0), nullptr);
  }
}

TEST(Registry, UnknownSystemThrows) {
  EXPECT_THROW(make_system("sparknet"), std::invalid_argument);
}

TEST(Registry, ComparisonSystemsMatchPaperOrder) {
  const auto systems = comparison_systems();
  ASSERT_EQ(systems.size(), 5u);
  EXPECT_EQ(systems.front(), "baseline");
  EXPECT_EQ(systems.back(), "dlion");
}

TEST(Registry, PaperEvaluationSettings) {
  core::WorkerOptions options;
  make_system("dlion").configure(options);
  EXPECT_TRUE(options.dynamic_batching);
  EXPECT_TRUE(options.weighted_update);
  EXPECT_EQ(options.dkt.mode, core::DktMode::kBest2All);
  EXPECT_DOUBLE_EQ(options.dkt.lambda, 0.75);

  core::WorkerOptions hop_opts;
  make_system("hop").configure(hop_opts);
  EXPECT_EQ(hop_opts.sync.staleness_bound, 5u);
  EXPECT_EQ(hop_opts.sync.backup_workers, 1u);

  core::WorkerOptions ako_opts;
  make_system("ako").configure(ako_opts);
  EXPECT_TRUE(ako_opts.sync.async);
}

}  // namespace
}  // namespace dlion::systems
