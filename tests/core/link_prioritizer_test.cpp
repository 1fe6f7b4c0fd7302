#include "core/link_prioritizer.h"

#include <gtest/gtest.h>

#include <string>

#include "core/gradient_select.h"

#include "common/check.h"
#include "common/rng.h"
#include "nn/model_zoo.h"

namespace dlion::core {
namespace {

nn::BuiltModel model_with_gradients(std::uint64_t seed) {
  common::Rng rng(seed);
  nn::BuiltModel bm = nn::make_mlp(rng, 16, 16, 4);
  common::Rng grad_rng(seed + 1);
  for (nn::Variable* v : bm.model.variables()) {
    for (auto& g : v->grad().span()) {
      g = static_cast<float>(grad_rng.normal());
    }
  }
  return bm;
}

LinkContext make_ctx(double mbps, double iters_per_sec,
                     double byte_scale = 1.0) {
  LinkContext ctx;
  ctx.self = 0;
  ctx.peer = 1;
  ctx.available_mbps = mbps;
  ctx.iterations_per_sec = iters_per_sec;
  ctx.byte_scale = byte_scale;
  ctx.learning_rate = 0.1;
  ctx.n_workers = 6;
  return ctx;
}

std::size_t total_entries(const comm::VarList& vars) {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

TEST(LinkPrioritizer, WideLinkSendsEverything) {
  nn::BuiltModel bm = model_with_gradients(1);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto out = lp.generate(bm.model, make_ctx(10000.0, 1.0));
  EXPECT_EQ(total_entries(out), bm.model.num_params());
  EXPECT_DOUBLE_EQ(lp.last_n(), 100.0);
}

TEST(LinkPrioritizer, NarrowLinkSendsLess) {
  nn::BuiltModel bm = model_with_gradients(2);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto wide = lp.generate(bm.model, make_ctx(100.0, 1.0));
  const std::size_t wide_entries = total_entries(wide);
  const auto narrow = lp.generate(bm.model, make_ctx(0.01, 1.0));
  EXPECT_LT(total_entries(narrow), wide_entries);
  EXPECT_LT(lp.last_n(), 100.0);
}

TEST(LinkPrioritizer, SizeTracksBandwidthMonotonically) {
  nn::BuiltModel bm = model_with_gradients(3);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  std::size_t prev = 0;
  for (double mbps : {0.005, 0.01, 0.05, 0.1, 1.0}) {
    const auto out = lp.generate(bm.model, make_ctx(mbps, 1.0));
    EXPECT_GE(total_entries(out), prev) << mbps << " Mbps";
    prev = total_entries(out);
  }
}

TEST(LinkPrioritizer, FasterIterationsShrinkBudget) {
  nn::BuiltModel bm = model_with_gradients(4);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto slow = lp.generate(bm.model, make_ctx(0.1, 1.0));
  const auto fast = lp.generate(bm.model, make_ctx(0.1, 10.0));
  EXPECT_LE(total_entries(fast), total_entries(slow));
}

TEST(LinkPrioritizer, ByteScaleShrinksEntryBudget) {
  nn::BuiltModel bm = model_with_gradients(5);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto raw = lp.generate(bm.model, make_ctx(0.1, 1.0, 1.0));
  const auto scaled = lp.generate(bm.model, make_ctx(0.1, 1.0, 100.0));
  EXPECT_LT(total_entries(scaled), total_entries(raw));
}

TEST(LinkPrioritizer, MinNFloorGuaranteesSelection) {
  nn::BuiltModel bm = model_with_gradients(6);
  LinkPrioritizerConfig cfg;
  cfg.min_n = 50.0;  // generous floor
  LinkPrioritizer lp(cfg);
  lp.begin_iteration(bm.model, 0);
  // Starved link: budget ~ 0, but the floor still selects Max 50 per var.
  const auto out = lp.generate(bm.model, make_ctx(1e-9, 100.0));
  std::size_t floor_total = 0;
  const auto& vars = bm.model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    floor_total += count_max_n(vars[v]->grad().span(), 50.0);
  }
  EXPECT_GE(total_entries(out), floor_total);
}

TEST(LinkPrioritizer, EveryVariableRepresented) {
  nn::BuiltModel bm = model_with_gradients(7);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto out = lp.generate(bm.model, make_ctx(0.05, 1.0));
  ASSERT_EQ(out.size(), bm.model.num_variables());
  for (const auto& vg : out) {
    EXPECT_GE(vg.num_entries(), 1u);  // at least one entry per variable
  }
}

TEST(LinkPrioritizer, FixedModeIgnoresBandwidth) {
  LinkPrioritizerConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_n = 10.0;
  nn::BuiltModel bm = model_with_gradients(8);
  LinkPrioritizer lp(cfg);
  lp.begin_iteration(bm.model, 0);
  const auto narrow = lp.generate(bm.model, make_ctx(0.001, 1.0));
  const auto wide = lp.generate(bm.model, make_ctx(1000.0, 1.0));
  EXPECT_EQ(total_entries(narrow), total_entries(wide));
  EXPECT_DOUBLE_EQ(lp.last_n(), 10.0);
}

TEST(LinkPrioritizer, ReportsLastEntries) {
  nn::BuiltModel bm = model_with_gradients(9);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const auto out = lp.generate(bm.model, make_ctx(0.1, 1.0));
  EXPECT_EQ(lp.last_entries(), total_entries(out));
}

// --- Shared per-iteration selections ------------------------------------

/// One link's output plus the prioritizer's report for it.
struct LinkOutput {
  comm::VarList vars;
  double last_n = 0.0;
  std::size_t last_entries = 0;
};

LinkOutput generate_link(LinkPrioritizer& lp, const nn::Model& model,
                         const LinkContext& ctx) {
  LinkOutput out;
  out.vars = lp.generate(model, ctx);
  out.last_n = lp.last_n();
  out.last_entries = lp.last_entries();
  return out;
}

/// What the link gets from a prioritizer that has served no other link.
LinkOutput generate_fresh(const nn::Model& model, const LinkContext& ctx) {
  LinkPrioritizer lp({});
  lp.begin_iteration(model, ctx.iteration);
  return generate_link(lp, model, ctx);
}

void expect_same_output(const LinkOutput& got, const LinkOutput& want) {
  ASSERT_EQ(got.vars.size(), want.vars.size());
  for (std::size_t v = 0; v < got.vars.size(); ++v) {
    SCOPED_TRACE("variable " + std::to_string(v));
    EXPECT_EQ(got.vars[v].var_index, want.vars[v].var_index);
    EXPECT_EQ(got.vars[v].dense_size, want.vars[v].dense_size);
    EXPECT_TRUE(got.vars[v].indices == want.vars[v].indices);
    EXPECT_TRUE(got.vars[v].values == want.vars[v].values);
  }
  // Bitwise, not approximately: the shared path must reproduce the fresh
  // arithmetic exactly.
  EXPECT_EQ(got.last_n, want.last_n);
  EXPECT_EQ(got.last_entries, want.last_entries);
}

void rewrite_gradients(nn::Model& model, std::uint64_t seed) {
  common::Rng grad_rng(seed);
  for (nn::Variable* v : model.variables()) {
    for (auto& g : v->grad().span()) {
      g = static_cast<float>(grad_rng.normal());
    }
  }
}

/// Links of one iteration: repeated, alternating and distinct budgets, a
/// starved link held up by the Max N floor, and a wide link that goes dense.
std::vector<LinkContext> mixed_links() {
  std::vector<LinkContext> links;
  for (double mbps : {0.01, 0.01, 0.004, 0.01, 0.004, 0.02, 1e-9, 10000.0}) {
    links.push_back(make_ctx(mbps, 1.0));
    links.back().peer = links.size();
  }
  return links;
}

TEST(LinkPrioritizer, SharedSelectionMatchesFreshPerLink) {
  nn::BuiltModel bm = model_with_gradients(10);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  std::vector<LinkOutput> shared;
  for (const LinkContext& ctx : mixed_links()) {
    SCOPED_TRACE("link to peer " + std::to_string(ctx.peer) + " at " +
                 std::to_string(ctx.available_mbps) + " Mbps");
    shared.push_back(generate_link(lp, bm.model, ctx));
    expect_same_output(shared.back(), generate_fresh(bm.model, ctx));
  }
  // The starved link kept exactly the floor; the wide one went dense.
  std::size_t floor_total = 0;
  for (nn::Variable* v : bm.model.variables()) {
    floor_total += count_max_n(v->grad().span(), LinkPrioritizerConfig{}.min_n);
  }
  EXPECT_EQ(shared[6].last_entries, floor_total);
  for (const auto& vg : shared[7].vars) EXPECT_TRUE(vg.is_dense());
}

TEST(LinkPrioritizer, BeginIterationDropsPreviousSelections) {
  nn::BuiltModel bm = model_with_gradients(11);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  const std::vector<LinkContext> links = mixed_links();
  std::vector<LinkOutput> first, first_fresh;
  for (const LinkContext& ctx : links) {
    first.push_back(generate_link(lp, bm.model, ctx));
    first_fresh.push_back(generate_fresh(bm.model, ctx));
  }
  rewrite_gradients(bm.model, 1011);
  lp.begin_iteration(bm.model, 1);
  // The new gradients select differently, so a stale selection would show.
  ASSERT_FALSE(first[0].vars[0].values ==
               generate_fresh(bm.model, links[0]).vars[0].values);
  for (std::size_t i = 0; i < links.size(); ++i) {
    SCOPED_TRACE("link " + std::to_string(i));
    LinkContext ctx = links[i];
    ctx.iteration = 1;
    expect_same_output(generate_link(lp, bm.model, ctx),
                       generate_fresh(bm.model, ctx));
    // Views handed out last iteration still read last iteration's bytes.
    expect_same_output(first[i], first_fresh[i]);
  }
}

TEST(LinkPrioritizer, EqualBudgetLinksShareStorage) {
  nn::BuiltModel bm = model_with_gradients(12);
  LinkPrioritizer lp({});
  lp.begin_iteration(bm.model, 0);
  LinkContext a = make_ctx(0.01, 1.0);
  LinkContext b = a;
  b.peer = 2;
  LinkContext c = make_ctx(0.04, 1.0);
  c.peer = 3;
  const auto out_a = lp.generate(bm.model, a);
  const auto out_b = lp.generate(bm.model, b);
  const auto out_c = lp.generate(bm.model, c);
  ASSERT_EQ(out_a.size(), bm.model.num_variables());
  for (std::size_t v = 0; v < out_a.size(); ++v) {
    SCOPED_TRACE("variable " + std::to_string(v));
    ASSERT_FALSE(out_a[v].values.empty());
    EXPECT_EQ(out_a[v].indices.data(), out_b[v].indices.data());
    EXPECT_EQ(out_a[v].values.data(), out_b[v].values.data());
    // Link c's budget asks for a different k in every variable, so each
    // of its selections is its own payload.
    ASSERT_NE(out_c[v].num_entries(), out_a[v].num_entries());
    EXPECT_NE(out_c[v].values.data(), out_a[v].values.data());
  }
}

TEST(LinkPrioritizer, FixedModeSelectsOncePerIteration) {
  LinkPrioritizerConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_n = 10.0;
  nn::BuiltModel bm = model_with_gradients(13);
  LinkPrioritizer lp(cfg);
  const auto& vars = bm.model.variables();
  for (std::uint64_t iteration : {0u, 1u}) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    if (iteration > 0) rewrite_gradients(bm.model, 1013);
    lp.begin_iteration(bm.model, iteration);
    std::size_t expected_entries = 0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      expected_entries +=
          select_max_n(vars[v]->grad().span(), 0, cfg.fixed_n).num_entries();
    }
    std::vector<LinkOutput> outs;
    for (LinkContext ctx : mixed_links()) {
      ctx.iteration = iteration;
      outs.push_back(generate_link(lp, bm.model, ctx));
      EXPECT_EQ(outs.back().last_n, cfg.fixed_n);
      EXPECT_EQ(outs.back().last_entries, expected_entries);
    }
    for (const LinkOutput& out : outs) {
      ASSERT_EQ(out.vars.size(), vars.size());
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const comm::VariableGrad want = select_max_n(
            vars[v]->grad().span(), static_cast<std::uint32_t>(v),
            cfg.fixed_n);
        EXPECT_EQ(out.vars[v].var_index, want.var_index);
        EXPECT_EQ(out.vars[v].dense_size, want.dense_size);
        EXPECT_TRUE(out.vars[v].indices == want.indices);
        EXPECT_TRUE(out.vars[v].values == want.values);
        EXPECT_EQ(out.vars[v].values.data(), outs[0].vars[v].values.data());
      }
    }
  }
}

TEST(LinkPrioritizer, GenerateRequiresBeginIteration) {
  common::ScopedContractThrow guard;
  nn::BuiltModel bm = model_with_gradients(14);
  LinkPrioritizer lp({});
  EXPECT_THROW((void)lp.generate(bm.model, make_ctx(0.01, 1.0)),
               common::ContractViolation);
}

}  // namespace
}  // namespace dlion::core
