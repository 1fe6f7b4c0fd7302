// Tests for the extension systems (DGC-style compression, Prague-style
// partial all-reduce) and their registry entries.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "nn/model_zoo.h"
#include "systems/dgc.h"
#include "systems/prague.h"
#include "systems/registry.h"

namespace dlion::systems {
namespace {

nn::BuiltModel model_with_gradients(std::uint64_t seed, float fill) {
  common::Rng rng(seed);
  nn::BuiltModel bm = nn::make_mlp(rng, 8, 8, 4);
  for (nn::Variable* v : bm.model.variables()) v->grad().fill(fill);
  return bm;
}

core::LinkContext ctx_for(std::size_t self, std::size_t peer,
                          std::uint64_t iteration, std::size_t n = 4) {
  core::LinkContext ctx;
  ctx.self = self;
  ctx.peer = peer;
  ctx.iteration = iteration;
  ctx.available_mbps = 100.0;
  ctx.iterations_per_sec = 1.0;
  ctx.byte_scale = 1.0;
  ctx.learning_rate = 0.1;
  ctx.n_workers = n;
  return ctx;
}

std::size_t total_entries(const comm::VarList& vars) {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

TEST(Dgc, SelectsDensityFraction) {
  nn::BuiltModel bm = model_with_gradients(1, 0.0f);
  common::Rng grad_rng(2);
  for (nn::Variable* v : bm.model.variables()) {
    for (auto& g : v->grad().span()) {
      g = static_cast<float>(grad_rng.normal());
    }
  }
  DgcStrategy s(0.1);
  const auto out = s.generate(bm.model, ctx_for(0, 1, 0));
  // ~10% per variable, rounded down but at least one entry each.
  EXPECT_LE(total_entries(out), bm.model.num_params() / 5);
  EXPECT_GE(total_entries(out), bm.model.num_variables());
}

TEST(Dgc, ResidualCarriesUnsentMass) {
  nn::BuiltModel bm = model_with_gradients(3, 1.0f);
  DgcStrategy s(0.01);
  // After k iterations of constant gradient 1, the entries that finally get
  // sent carry the accumulated value k (error feedback: nothing is lost).
  (void)s.generate(bm.model, ctx_for(0, 1, 0));
  (void)s.generate(bm.model, ctx_for(0, 1, 1));
  const auto out = s.generate(bm.model, ctx_for(0, 1, 2));
  bool found = false;
  for (const auto& vg : out) {
    for (float v : vg.values) {
      // Entries sent before carry less; never-sent entries carry 3.
      EXPECT_GE(v, 1.0f - 1e-5);
      EXPECT_LE(v, 3.0f + 1e-5);
      if (v > 2.5f) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dgc, InvalidDensityThrows) {
  EXPECT_THROW(DgcStrategy(0.0), std::invalid_argument);
  EXPECT_THROW(DgcStrategy(1.5), std::invalid_argument);
}

TEST(Prague, GroupSizePeersGetDenseOthersNothing) {
  nn::BuiltModel bm = model_with_gradients(4, 1.0f);
  PragueStrategy s(2, 7);
  std::size_t dense_links = 0, empty_links = 0;
  for (std::size_t peer = 1; peer < 6; ++peer) {
    const auto out = s.generate(bm.model, ctx_for(0, peer, 0, 6));
    if (total_entries(out) == bm.model.num_params()) {
      ++dense_links;
    } else if (total_entries(out) == 0) {
      ++empty_links;
    } else {
      FAIL() << "partial update from Prague";
    }
  }
  EXPECT_EQ(dense_links, 2u);
  EXPECT_EQ(empty_links, 3u);
}

TEST(Prague, GroupChangesAcrossIterations) {
  nn::BuiltModel bm = model_with_gradients(5, 1.0f);
  PragueStrategy s(2, 11);
  std::set<std::vector<std::size_t>> groups;
  for (std::uint64_t it = 0; it < 20; ++it) {
    (void)s.generate(bm.model, ctx_for(0, 1, it, 6));
    groups.insert(s.current_group());
  }
  EXPECT_GT(groups.size(), 1u);  // randomized groups
}

TEST(Prague, GroupNeverContainsSelf) {
  nn::BuiltModel bm = model_with_gradients(6, 1.0f);
  PragueStrategy s(3, 13);
  for (std::uint64_t it = 0; it < 10; ++it) {
    (void)s.generate(bm.model, ctx_for(2, 0, it, 6));
    for (std::size_t member : s.current_group()) {
      EXPECT_NE(member, 2u);
      EXPECT_LT(member, 6u);
    }
  }
}

TEST(Prague, InvalidGroupSizeThrows) {
  EXPECT_THROW(PragueStrategy(0, 1), std::invalid_argument);
}

TEST(Registry, ExtensionSystemsConstruct) {
  for (const std::string name : {"dgc", "prague"}) {
    const SystemSpec spec = make_system(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NE(spec.strategy_factory(0), nullptr);
    core::WorkerOptions options;
    spec.configure(options);
    EXPECT_EQ(options.dkt.mode, core::DktMode::kNone);
  }
}

}  // namespace
}  // namespace dlion::systems
