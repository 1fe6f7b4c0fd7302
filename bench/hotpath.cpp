// Hot-path benchmark: GEMM throughput, training-step latency/allocations
// (cipher CNN, and MobileNet-20 training plus evaluation), Max-N selection
// throughput, DLion's per-link selection fan-out, the gradient exchange's
// per-message allocations (plain and observed fan-outs), the simulator's
// per-message allocations (event queue, streamed trace records), and
// training determinism checksums.
//
// Emits a machine-readable BENCH_hotpath.json (fixed key order; only the
// timing fields vary run-to-run, the checksum fields are deterministic) so
// CI can track kernel regressions and cross-check bit-determinism across
// DLION_THREADS settings. The `pre_pr` blocks are frozen measurements of
// the pre-blocking kernels on the reference dev container, kept as the
// comparison anchor for the packed-GEMM speedup.
//
// Usage: hotpath [--out=PATH] [--steps=N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "comm/fabric.h"
#include "common/rng.h"
#include "core/gradient_select.h"
#include "core/link_prioritizer.h"
#include "core/weighted_update.h"
#include "nn/model_zoo.h"
#include "obs/trace_sink.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "systems/baseline.h"
#include "tensor/gemm_ref.h"
#include "tensor/ops.h"

// Global allocation hook (defines operator new/delete; one TU per binary).
#include "alloc_hook.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best-of-`reps` wall time of `fn` in seconds.
template <typename F>
double time_best(int reps, F&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return best;
}

using dlion::bench::fnv1a;
using dlion::bench::hex64;

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

// Frozen pre-PR measurements (naive per-variant kernels, -O3, single
// thread, reference dev container) used as the speedup anchor.
struct PrePrGemm {
  bool ta, tb;
  double gflops;
};
constexpr PrePrGemm kPrePrGemm[] = {
    {false, false, 9.493},
    {false, true, 3.919},
    {true, false, 10.639},
    {true, true, 1.523},
};
constexpr double kPrePrStepMs = 45.41;
constexpr std::uint64_t kPrePrStepAllocs = 75;
constexpr std::uint64_t kPrePrStepBytes = 11'766'600;

// Frozen pre-PR comm-path measurements (owned-vector payloads: every
// message materialized a fresh copy of the gradient, reference dev
// container). `exchange` = one peer message of the fan-out: produce the
// payload, send it through the fabric, deliver, apply.
constexpr double kPrePrCommMsgsPerSec = 261.0;
constexpr std::uint64_t kPrePrCommAllocsPerExchange = 11;
constexpr std::uint64_t kPrePrCommCopyBytesPerMsg = 4'022'360;
constexpr std::uint64_t kPrePrCommCopiesPerMsg = 10;

// Frozen pre-PR simulator per-message allocations (std::map event queue
// with an unordered_map cancellation index; string-returning trace-record
// builders), as bench_engine() below counts them.
constexpr std::uint64_t kPrePrAllocsPerEvent = 2;
constexpr std::uint64_t kPrePrAllocsPerRecord = 5;

// Small-GEMM operand kinds. The nn/tn kernels take their select-free tiles
// only when B is finite (and C holds no -0.0), so the rows cover both paths:
// uniform A; ReLU-like A, about half +0.0 like cipher-lite's activations;
// and that A with one +inf in B, which gemm() hands to reference_gemm.
enum class Operands { kDense, kRelu, kNonFiniteB };

const char* operands_name(Operands kind) {
  switch (kind) {
    case Operands::kDense: return "dense";
    case Operands::kRelu: return "relu";
    case Operands::kNonFiniteB: return "nonfinite_b";
  }
  return "?";
}

struct GemmRow {
  bool ta, tb;
  std::size_t m, n, k;
  Operands operands;
  double gflops;  // tensor::gemm: packed path, or small kernels below cutoff
  double reference_gflops;
  double max_abs_diff;
  bool bitmatch;         // gemm() output memcmp-equal to reference_gemm
  double pre_pr_gflops;  // 0 when no frozen anchor for this shape
};

GemmRow bench_gemm_shape(bool ta, bool tb, std::size_t m, std::size_t n,
                         std::size_t k, dlion::common::Rng& rng,
                         Operands operands = Operands::kDense) {
  const std::size_t a_elems = m * k, b_elems = k * n, c_elems = m * n;
  std::vector<float> a(a_elems), b(b_elems), c_packed(c_elems),
      c_ref(c_elems);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  if (operands != Operands::kDense) {
    for (auto& x : a) x = std::max(x, 0.0f);
  }
  if (operands == Operands::kNonFiniteB) {
    b[b_elems / 2] = std::numeric_limits<float>::infinity();
  }

  const double flops = 2.0 * static_cast<double>(m) * n * k;
  // Scale repetitions to the problem so small shapes still time well.
  const int reps = flops > 1e7 ? 10 : 50;

  dlion::tensor::gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
                      c_packed.data());  // warm-up + correctness sample
  dlion::tensor::reference_gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(),
                                0.0f, c_ref.data());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < c_elems; ++i) {
    const double d = std::abs(static_cast<double>(c_packed[i]) - c_ref[i]);
    if (d > max_diff) max_diff = d;
  }

  const bool bitmatch =
      std::memcmp(c_packed.data(), c_ref.data(), c_elems * sizeof(float)) == 0;

  // Time batches of calls so microsecond-sized problems stay well above the
  // clock resolution.
  const int batch = flops < 1e6 ? static_cast<int>(1e6 / flops) + 1 : 1;
  const double t_packed = time_best(reps, [&] {
    for (int i = 0; i < batch; ++i) {
      dlion::tensor::gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
                          c_packed.data());
    }
  }) / batch;
  const double t_ref = time_best(reps > 10 ? 10 : 3, [&] {
    for (int i = 0; i < batch; ++i) {
      dlion::tensor::reference_gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(),
                                    0.0f, c_ref.data());
    }
  }) / batch;

  GemmRow row{ta, tb, m, n, k, operands, flops / t_packed / 1e9,
              flops / t_ref / 1e9, max_diff, bitmatch, 0.0};
  if (m == 256 && n == 256 && k == 256) {
    for (const auto& p : kPrePrGemm) {
      if (p.ta == ta && p.tb == tb) row.pre_pr_gflops = p.gflops;
    }
  }
  return row;
}

struct StepStats {
  double ms_median;
  std::uint64_t allocs_per_step;
  std::uint64_t bytes_per_step;
};

constexpr std::size_t kMobileNetTrainBatch = 32;
constexpr std::size_t kMobileNetEvalBatch = 512;

/// Median latency and steady-state allocations per call of `fn` over
/// `steps` calls. Three warm-up calls first populate scratch buffers and
/// pools, so the measured calls see the steady state of a long run.
template <typename F>
StepStats time_steps(int steps, F&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> ms(static_cast<std::size_t>(steps));
  benchalloc::start();
  for (int i = 0; i < steps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms[static_cast<std::size_t>(i)] = seconds_since(t0) * 1e3;
  }
  const benchalloc::Totals totals = benchalloc::stop();
  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], totals.count / static_cast<std::uint64_t>(steps),
          totals.bytes / static_cast<std::uint64_t>(steps)};
}

/// Runs `steps` cipher-CNN training steps (batch 16) and reports the median
/// step latency plus steady-state allocations per step.
StepStats bench_training_step(int steps) {
  dlion::common::Rng rng(42);
  auto bm = dlion::nn::make_cipher_cnn(rng);
  const std::size_t batch = 16;
  dlion::tensor::Tensor images(
      dlion::tensor::Shape{batch, 1, 28, 28});
  std::vector<std::int32_t> labels(batch);
  for (auto& x : images.span()) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.uniform_int(0, 9));
  }
  return time_steps(steps, [&] {
    bm.model.compute_gradients(images, labels);
    bm.model.sgd_step(0.01f);
  });
}

struct MobileNetStats {
  StepStats train;
  StepStats eval;
};

/// MobileNet-20 on Fig 12's 3x12x12 images: a training step (batch 32) and
/// an evaluation (batch 512), the two calls its workers make. The GEMM
/// fan-out is off (no GEMM here is large enough for it anyway), so the
/// training step runs on one thread at any DLION_THREADS; the evaluation's
/// conv layers split its samples over DLION_THREADS threads.
MobileNetStats bench_mobilenet_step(int steps) {
  const bool prev_parallel = dlion::tensor::set_gemm_parallel(false);
  dlion::common::Rng rng(42);
  auto bm = dlion::nn::make_model("mobilenet-20", rng);
  auto batch = [&rng](std::size_t n, dlion::tensor::Tensor& images,
                      std::vector<std::int32_t>& labels) {
    images = dlion::tensor::Tensor(dlion::tensor::Shape{n, 3, 12, 12});
    for (auto& x : images.span()) {
      x = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    labels.resize(n);
    for (auto& l : labels) {
      l = static_cast<std::int32_t>(rng.uniform_int(0, 19));
    }
  };
  dlion::tensor::Tensor train_x, eval_x;
  std::vector<std::int32_t> train_y, eval_y;
  batch(kMobileNetTrainBatch, train_x, train_y);
  batch(kMobileNetEvalBatch, eval_x, eval_y);
  MobileNetStats s;
  s.train = time_steps(steps, [&] {
    bm.model.compute_gradients(train_x, train_y);
    bm.model.sgd_step(0.01f);
  });
  s.eval = time_steps(steps, [&] { bm.model.evaluate(eval_x, eval_y); });
  dlion::tensor::set_gemm_parallel(prev_parallel);
  return s;
}

using dlion::bench::weights_checksum;

/// Trains the cipher CNN for `steps` steps from a fixed seed and returns
/// the final weight checksum. Bit-deterministic by design at any thread
/// count; CI compares this value across DLION_THREADS settings.
std::uint64_t train_checksum(int steps, bool parallel_gemm) {
  const bool prev = dlion::tensor::set_gemm_parallel(parallel_gemm);
  dlion::common::Rng rng(7);
  auto bm = dlion::nn::make_cipher_cnn(rng);
  const std::size_t batch = 8;
  dlion::tensor::Tensor images(dlion::tensor::Shape{batch, 1, 28, 28});
  std::vector<std::int32_t> labels(batch);
  for (auto& x : images.span()) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.uniform_int(0, 9));
  }
  for (int i = 0; i < steps; ++i) {
    bm.model.compute_gradients(images, labels);
    bm.model.sgd_step(0.05f);
  }
  const std::uint64_t h = weights_checksum(bm.model);
  dlion::tensor::set_gemm_parallel(prev);
  return h;
}

struct MaxNStats {
  std::size_t selected;
  double select_gelems;
  double count_gelems;
};

MaxNStats bench_max_n(std::size_t elems, double n) {
  dlion::common::Rng rng(123);
  std::vector<float> grad(elems);
  for (auto& g : grad) g = static_cast<float>(rng.normal(0.0, 1.0));
  const std::span<const float> span(grad);

  auto vg = dlion::core::select_max_n(span, 0, n);  // warm-up + count
  const double t_sel = time_best(5, [&] {
    auto v = dlion::core::select_max_n(span, 0, n);
    if (v.values.empty() && n < 100.0) std::abort();  // keep the work live
  });
  const double t_cnt = time_best(5, [&] {
    if (dlion::core::count_max_n(span, n) != vg.values.size()) std::abort();
  });
  return {vg.values.size(), static_cast<double>(elems) / t_sel / 1e9,
          static_cast<double>(elems) / t_cnt / 1e9};
}

struct LinkSelectionStats {
  std::size_t variables = 0;
  std::size_t selections_per_iteration = 0;  ///< distinct payloads made
  double iterations_per_sec = 0.0;
  double fresh_iterations_per_sec = 0.0;
  double top_k_us = 0.0;            ///< select_top_k_mags on the 4096 layer
  double reference_top_k_us = 0.0;  ///< reference_select_top_k_mags, same
  bool bitmatch = false;            ///< shared == one prioritizer per link
  bool bitmatch_reference = false;  ///< every selection == the reference's
};

constexpr std::size_t kIntraLinks = 7;
constexpr std::size_t kInterLinks = 56;
/// Seeded gradients the selection benches rotate through. On one repeated
/// gradient, branch prediction memorises the selection's path, and a
/// top-k timed that way reads several times faster than on fresh input.
constexpr std::size_t kGradients = 16;
/// The top-k micro-benchmark's shape: cipher-lite's fc1 weights at the
/// ~5% inter-micro-cloud budget.
constexpr std::size_t kTopKElems = 4096;
constexpr std::size_t kTopK = 204;

/// DLion's per-link selection for one sender on the scale64-dlion link
/// shape: a cipher-lite gradient fans out to 63 peers, 7 inside its
/// micro-cloud and 56 beyond it (the two bandwidth classes of
/// make_scale_environment(64)). The shared path is one LinkPrioritizer per
/// iteration, which selects once per distinct (variable, k); the fresh path
/// builds a prioritizer per link, so every link redoes its own magnitude
/// pass, floor count and top-k. Iteration i selects on gradient
/// i mod kGradients.
LinkSelectionStats bench_link_selection(int shared_iters, int fresh_iters) {
  using dlion::comm::VariableGrad;
  using dlion::core::LinkContext;
  using dlion::core::LinkPrioritizer;
  dlion::common::Rng rng(31);
  std::vector<dlion::nn::BuiltModel> models;
  models.reserve(kGradients);
  for (std::size_t g = 0; g < kGradients; ++g) {
    models.push_back(dlion::nn::make_cipher_lite(rng));
    for (dlion::nn::Variable* v : models.back().model.variables()) {
      for (auto& x : v->grad().span()) {
        x = static_cast<float>(rng.normal(0.0, 1.0));
      }
    }
  }
  const auto model_of = [&](std::uint64_t iter) -> const dlion::nn::Model& {
    return models[iter % kGradients].model;
  };
  dlion::comm::PayloadArena arena;
  // Budgets of ~18% (intra) and ~5% (inter) of the model's entries.
  std::vector<LinkContext> links(kIntraLinks + kInterLinks);
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].peer = i + 1;
    links[i].available_mbps = i < kIntraLinks ? 0.1 : 0.03;
    links[i].arena = &arena;
  }

  struct LinkOut {
    dlion::comm::VarList vars;
    double last_n;
    std::size_t last_entries;
  };
  const auto generate = [](LinkPrioritizer& lp, const dlion::nn::Model& model,
                           const LinkContext& ctx) {
    LinkOut out{lp.generate(model, ctx), 0.0, 0};
    out.last_n = lp.last_n();
    out.last_entries = lp.last_entries();
    return out;
  };
  LinkPrioritizer shared_lp({});
  const auto shared_iteration = [&](std::uint64_t iter,
                                    std::vector<LinkOut>* keep) {
    const dlion::nn::Model& model = model_of(iter);
    shared_lp.begin_iteration(model, iter);
    for (LinkContext ctx : links) {
      ctx.iteration = iter;
      LinkOut out = generate(shared_lp, model, ctx);
      if (keep != nullptr) keep->push_back(std::move(out));
    }
  };
  const auto fresh_iteration = [&](std::uint64_t iter,
                                   std::vector<LinkOut>* keep) {
    const dlion::nn::Model& model = model_of(iter);
    for (LinkContext ctx : links) {
      ctx.iteration = iter;
      LinkPrioritizer lp({});
      lp.begin_iteration(model, iter);
      LinkOut out = generate(lp, model, ctx);
      if (keep != nullptr) keep->push_back(std::move(out));
    }
  };

  LinkSelectionStats s;
  s.variables = models.front().model.num_variables();
  s.bitmatch = true;
  s.bitmatch_reference = true;
  std::vector<float> mags;
  for (std::uint64_t iter = 0; iter < kGradients; ++iter) {
    std::vector<LinkOut> shared, fresh;
    shared_iteration(iter, &shared);
    fresh_iteration(iter, &fresh);
    s.bitmatch = s.bitmatch && shared.size() == fresh.size();
    for (std::size_t l = 0; s.bitmatch && l < shared.size(); ++l) {
      const LinkOut& a = shared[l];
      const LinkOut& b = fresh[l];
      s.bitmatch = a.vars.size() == b.vars.size() &&
                   std::memcmp(&a.last_n, &b.last_n, sizeof(double)) == 0 &&
                   a.last_entries == b.last_entries;
      for (std::size_t v = 0; s.bitmatch && v < a.vars.size(); ++v) {
        s.bitmatch = a.vars[v].var_index == b.vars[v].var_index &&
                     a.vars[v].dense_size == b.vars[v].dense_size &&
                     a.vars[v].indices == b.vars[v].indices &&
                     a.vars[v].values == b.vars[v].values;
      }
    }
    // Every selection, and the threshold it reports, against the routine
    // the threshold pass replaced.
    const auto vars = model_of(iter).variables();
    for (const LinkOut& out : shared) {
      for (std::size_t v = 0; v < vars.size(); ++v) {
        const auto grad = vars[v]->grad().span();
        dlion::core::magnitudes(grad, mags);
        const VariableGrad& got = out.vars[v];
        const std::size_t k = got.num_entries();
        const auto var = static_cast<std::uint32_t>(v);
        float kth = -1.0f, ref_kth = -1.0f;
        dlion::core::select_top_k_mags(grad, mags, var, k, &kth);
        const VariableGrad ref = dlion::core::reference_select_top_k_mags(
            grad, mags, var, k, &ref_kth);
        s.bitmatch_reference = s.bitmatch_reference &&
                               got.indices == ref.indices &&
                               got.values == ref.values &&
                               std::memcmp(&kth, &ref_kth, sizeof kth) == 0;
      }
    }
    if (iter != 0) continue;
    for (std::size_t v = 0; v < s.variables; ++v) {
      std::vector<const float*> payloads;
      for (const LinkOut& out : shared) {
        payloads.push_back(out.vars[v].values.data());
      }
      std::sort(payloads.begin(), payloads.end());
      s.selections_per_iteration += static_cast<std::size_t>(
          std::unique(payloads.begin(), payloads.end()) - payloads.begin());
    }
  }

  std::uint64_t iter = kGradients;
  const double t_shared = time_best(3, [&] {
    for (int i = 0; i < shared_iters; ++i) shared_iteration(iter++, nullptr);
  });
  const double t_fresh = time_best(3, [&] {
    for (int i = 0; i < fresh_iters; ++i) fresh_iteration(iter++, nullptr);
  });
  s.iterations_per_sec = shared_iters / t_shared;
  s.fresh_iterations_per_sec = fresh_iters / t_fresh;

  // One top-k on the 4096-entry layer, rotating through the gradients.
  std::vector<std::span<const float>> grads;
  std::vector<std::vector<float>> grad_mags(kGradients);
  for (std::size_t g = 0; g < kGradients; ++g) {
    for (const dlion::nn::Variable* v : models[g].model.variables()) {
      if (v->grad().span().size() == kTopKElems) {
        grads.push_back(v->grad().span());
        dlion::core::magnitudes(grads.back(), grad_mags[g]);
        break;
      }
    }
  }
  const auto time_top_k = [&](auto select) {
    constexpr int kCalls = 2000;
    const double t = time_best(3, [&] {
      for (int c = 0; c < kCalls; ++c) {
        const std::size_t g = static_cast<std::size_t>(c) % grads.size();
        const VariableGrad vg = select(grads[g], grad_mags[g]);
        if (vg.num_entries() != kTopK) std::abort();  // keep the work live
      }
    });
    return t / kCalls * 1e6;
  };
  s.top_k_us = time_top_k([](auto grad, const std::vector<float>& m) {
    return dlion::core::select_top_k_mags(grad, m, 0, kTopK);
  });
  s.reference_top_k_us = time_top_k([](auto grad, const std::vector<float>& m) {
    return dlion::core::reference_select_top_k_mags(grad, m, 0, kTopK);
  });
  return s;
}

struct FanOutStats {
  double msgs_per_sec = 0.0;
  /// Heap allocations per message, rounded up: 0 only when the measured
  /// rounds made no allocation at all.
  std::uint64_t allocs_per_msg_total = 0;
  std::uint64_t copies_per_msg = 0;      ///< payload materializations
  std::uint64_t copy_bytes_per_msg = 0;  ///< bytes duplicated per message
};

struct CommStats {
  FanOutStats plain;
  FanOutStats observed;
  std::uint64_t payload_bytes_per_msg = 0;  ///< gradient bytes carried
  /// Trace events the observed fan-out streams per message (flow start,
  /// tx span, flow step, flow end).
  std::uint64_t observed_trace_events_per_msg = 0;
};

/// Runs `exchange(iteration)` 10 times to warm every pool, then times
/// `exchanges` more with the allocation and payload-copy counters on.
template <typename Exchange>
FanOutStats measure_fan_out(int exchanges, std::uint64_t peers,
                            Exchange&& exchange) {
  for (int i = 0; i < 10; ++i) exchange(static_cast<std::uint64_t>(i));
  const std::uint64_t msgs = static_cast<std::uint64_t>(exchanges) * peers;
  const std::uint64_t copies0 = dlion::comm::payload_copy_count();
  const std::uint64_t copy_bytes0 = dlion::comm::payload_copy_bytes();
  benchalloc::start();
  const auto t0 = Clock::now();
  for (int i = 0; i < exchanges; ++i) {
    exchange(static_cast<std::uint64_t>(10 + i));
  }
  const double elapsed = seconds_since(t0);
  const benchalloc::Totals totals = benchalloc::stop();
  FanOutStats s;
  s.msgs_per_sec = static_cast<double>(msgs) / elapsed;
  s.allocs_per_msg_total = (totals.count + msgs - 1) / msgs;
  // Global payload-copy counters: zero on the warm path - every payload is
  // produced once in the arena and shared by view from there.
  s.copies_per_msg = (dlion::comm::payload_copy_count() - copies0) / msgs;
  s.copy_bytes_per_msg =
      (dlion::comm::payload_copy_bytes() - copy_bytes0) / msgs;
  return s;
}

/// Warm-data-path gradient exchange, two ways. One sender fans an update
/// out to 3 peers over the fabric; each peer applies it on delivery.
///  * plain: a dense Max-100 selection staged once per exchange, every
///    peer's update sharing its views; no observer.
///  * observed: BaselineStrategy generates each peer's update (the dense
///    gradient staged once per iteration, the staged list copied per peer),
///    and an observer records every transmission's tx span with its args
///    and the message's causal flow, streamed through a ChromeStreamSink
///    into a null stream without retention, as on the scale workloads.
/// CI requires both to make 0 heap allocations per message: message nodes,
/// variable lists, transfer slots, link queues, event callbacks and span
/// args are all recycled.
CommStats bench_comm(int exchanges) {
  static constexpr std::size_t kSlots = 4;  // 1 sender + 3 receivers
  constexpr std::uint64_t kPeers = kSlots - 1;

  dlion::common::Rng rng(21);
  auto sender = dlion::nn::make_cipher_cnn(rng);
  dlion::tensor::Tensor images(dlion::tensor::Shape{8, 1, 28, 28});
  std::vector<std::int32_t> labels(8);
  for (auto& x : images.span()) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& l : labels) {
    l = static_cast<std::int32_t>(rng.uniform_int(0, 9));
  }
  sender.model.compute_gradients(images, labels);

  std::vector<dlion::nn::BuiltModel> receivers;
  receivers.reserve(kPeers);  // handlers capture stable model pointers
  for (std::size_t r = 1; r < kSlots; ++r) {
    dlion::common::Rng peer_rng(21);
    receivers.push_back(dlion::nn::make_cipher_cnn(peer_rng));
  }
  const auto attach_receivers = [&](dlion::comm::Fabric& fabric) {
    for (std::size_t r = 1; r < kSlots; ++r) {
      dlion::nn::Model* peer_model = &receivers[r - 1].model;
      fabric.attach(r, [peer_model](std::size_t,
                                    dlion::comm::MessagePtr msg) {
        if (const auto* gu =
                std::get_if<dlion::comm::GradientUpdate>(msg.get())) {
          dlion::core::apply_gradient_update(*peer_model, *gu, 0.01f, kSlots,
                                             1.0);
        }
      });
    }
  };
  const std::size_t nvars = sender.model.num_variables();
  const auto select_all = [&](dlion::comm::PayloadArena& arena) {
    dlion::comm::PayloadWriter writer(arena);
    dlion::comm::VarList vars;
    vars.reserve(nvars);
    for (std::size_t v = 0; v < nvars; ++v) {
      vars.push_back(dlion::core::select_max_n(
          sender.model.variables()[v]->grad().span(), v, 100.0, writer));
    }
    return vars;
  };

  CommStats s;
  {
    dlion::sim::Engine engine;
    dlion::sim::Network net(engine, kSlots);
    dlion::comm::Fabric fabric(net);
    attach_receivers(fabric);
    dlion::comm::PayloadArena arena;
    s.plain = measure_fan_out(exchanges, kPeers, [&](std::uint64_t iter) {
      const dlion::comm::VarList staged = select_all(arena);
      for (std::size_t peer = 1; peer < kSlots; ++peer) {
        dlion::comm::GradientUpdate u;
        u.from = 0;
        u.iteration = iter;
        u.lbs = 32;
        u.vars = staged;  // shared views, no payload bytes move
        fabric.send(0, peer, std::move(u));
      }
      engine.run();
    });
    // Actual bytes one message carries, measured on a staged sample.
    dlion::comm::GradientUpdate sample;
    sample.vars = select_all(arena);
    s.payload_bytes_per_msg =
        dlion::comm::payload_bytes(dlion::comm::Message(sample));
  }
  {
    std::ostream null(nullptr);
    dlion::obs::ChromeStreamSink sink(null);
    dlion::obs::Observability o;
    o.tracer().set_retain_all(false);
    o.tracer().set_sink(&sink);
    dlion::sim::Engine engine;
    dlion::sim::Network net(engine, kSlots);
    dlion::comm::Fabric fabric(net);
    engine.set_obs(&o);
    net.set_obs(&o);
    fabric.set_obs(&o);
    attach_receivers(fabric);
    dlion::systems::BaselineStrategy baseline;
    dlion::comm::PayloadArena arena;
    dlion::core::LinkContext ctx;
    ctx.arena = &arena;
    s.observed = measure_fan_out(exchanges, kPeers, [&](std::uint64_t iter) {
      ctx.iteration = iter;
      for (std::size_t peer = 1; peer < kSlots; ++peer) {
        ctx.peer = peer;
        dlion::comm::GradientUpdate u;
        u.from = 0;
        u.iteration = iter;
        u.lbs = 32;
        u.vars = baseline.generate(sender.model, ctx);
        fabric.send(0, peer, std::move(u));
      }
      engine.run();
    });
    s.observed_trace_events_per_msg =
        sink.events_written() /
        ((static_cast<std::uint64_t>(exchanges) + 10) * kPeers);
  }
  return s;
}

struct EngineStats {
  std::uint64_t events = 0;
  std::uint64_t records = 0;
  double allocs_per_event = 0.0;
  double allocs_per_span_record = 0.0;
  double allocs_per_flow_record = 0.0;
  double events_per_sec = 0.0;
};

/// The simulator's per-message machinery, warmed: event-queue push/pop
/// cycles whose callbacks capture 16 bytes (a pointer and a value, like
/// the engine's scheduled lambdas), and per-message trace records (a
/// link's "tx" span and a flow point) streamed through a ChromeStreamSink
/// into a null stream. CI requires all three counts to be exactly 0.
EngineStats bench_engine(int rounds) {
  constexpr int kBatch = 64;  // events pending at once
  dlion::sim::EventQueue queue;
  std::uint64_t acc = 0;
  const auto cycle = [&](int round) {
    for (int i = 0; i < kBatch; ++i) {
      const auto v = static_cast<std::uint64_t>(i);
      queue.push(static_cast<double>(round) + (i % 8) * 0.125,
                 [sum = &acc, v] { *sum += v; });
    }
    while (!queue.empty()) queue.pop().fn();
  };
  cycle(0);
  EngineStats s;
  s.events = static_cast<std::uint64_t>(rounds) * kBatch;
  benchalloc::start();
  const auto t0 = Clock::now();
  for (int r = 1; r <= rounds; ++r) cycle(r);
  s.events_per_sec = static_cast<double>(s.events) / seconds_since(t0);
  s.allocs_per_event = static_cast<double>(benchalloc::stop().count) /
                       static_cast<double>(s.events);

  std::ostream null(nullptr);
  dlion::obs::ChromeStreamSink sink(null);
  sink.on_track(1, 2, 1, "network", "link 0003->0007");
  using dlion::obs::Tracer;
  Tracer::Span span{1, "tx", 0.0, 0.0, {{"bytes", 0.0}, {"mbps", 953.6}}};
  Tracer::Flow flow{1, Tracer::FlowPhase::kStep, "flow", 0.0, 0};
  const auto stream = [&](int first, int n, bool spans) {
    for (int i = first; i < first + n; ++i) {
      const double t = 1e-3 * i;
      if (spans) {
        span.t0 = t;
        span.t1 = t + 2.5e-4;
        span.args[0].value = 4096.0 * i;
        sink.on_span(span);
      } else {
        flow.t = t;
        flow.id = (std::uint64_t{4} << 40) | static_cast<std::uint64_t>(i);
        sink.on_flow(flow);
      }
    }
  };
  // Warm on the longest records so the sink's line buffer is full grown.
  stream(rounds, 16, true);
  stream(rounds, 16, false);
  s.records = static_cast<std::uint64_t>(rounds);
  benchalloc::start();
  stream(0, rounds, true);
  s.allocs_per_span_record = static_cast<double>(benchalloc::stop().count) /
                             static_cast<double>(s.records);
  benchalloc::start();
  stream(0, rounds, false);
  s.allocs_per_flow_record = static_cast<double>(benchalloc::stop().count) /
                             static_cast<double>(s.records);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_hotpath.json";
  int steps = 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    if (arg.rfind("--steps=", 0) == 0) steps = std::atoi(arg.c_str() + 8);
  }
  if (steps < 4) steps = 4;

  const char* threads_env = std::getenv("DLION_THREADS");

  // --- GEMM throughput, single-threaded (the acceptance anchor). ---------
  const bool prev_parallel = dlion::tensor::set_gemm_parallel(false);
  dlion::common::Rng rng(1);
  std::vector<GemmRow> rows;
  for (const auto& p : kPrePrGemm) {
    rows.push_back(bench_gemm_shape(p.ta, p.tb, 256, 256, 256, rng));
  }
  // Training-shaped problems: conv3 of the cipher CNN and the fc1 backward.
  rows.push_back(bench_gemm_shape(false, false, 100, 49, 180, rng));
  rows.push_back(bench_gemm_shape(true, false, 4900, 200, 16, rng));
  // The costliest below-cutoff shapes of the end-to-end GEMM census
  // (bench/e2e): cipher-lite's fc1 input gradient and eval forward, and
  // MobileNet's per-sample pointwise and depthwise-stage convs. Then
  // cipher-lite's fc2 forward and weight gradient with ReLU-density
  // activations, and one row on the reference fallback.
  std::vector<GemmRow> small_rows;
  small_rows.push_back(bench_gemm_shape(false, true, 32, 64, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 512, 10, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 96, 4, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 48, 9, 48, rng));
  small_rows.push_back(bench_gemm_shape(true, false, 64, 48, 32, rng));
  small_rows.push_back(
      bench_gemm_shape(false, false, 32, 48, 64, rng, Operands::kRelu));
  small_rows.push_back(
      bench_gemm_shape(true, false, 64, 48, 32, rng, Operands::kRelu));
  small_rows.push_back(
      bench_gemm_shape(false, false, 32, 48, 64, rng, Operands::kNonFiniteB));
  dlion::tensor::set_gemm_parallel(prev_parallel);

  // --- Training step latency + allocations (pool default threading). ----
  const StepStats step = bench_training_step(steps);
  const MobileNetStats mobilenet = bench_mobilenet_step(steps);

  // --- Max-N selection throughput. ---------------------------------------
  const MaxNStats maxn = bench_max_n(1'000'000, 1.0);

  // --- DLion per-link selection: shared vs one prioritizer per link. -----
  const LinkSelectionStats links = bench_link_selection(400, 40);

  // --- Comm data plane: gradient exchange over the fabric. ---------------
  const CommStats comm = bench_comm(100);

  // --- Simulator per-message allocations: event queue, trace records. ---
  const EngineStats engine = bench_engine(2000);

  // --- Determinism: serial vs pooled GEMM must agree bitwise. ------------
  const int det_steps = 8;
  const std::uint64_t sum_serial = train_checksum(det_steps, false);
  const std::uint64_t sum_parallel = train_checksum(det_steps, true);
  const bool bitmatch = sum_serial == sum_parallel;

  // --- Emit JSON (fixed key order). ---------------------------------------
  std::string j;
  j += "{\n";
  j += "  \"schema\": \"dlion-hotpath-v1\",\n";
  j += "  \"generated_by\": \"bench/hotpath\",\n";
  j += "  \"gemm_kernel\": \"" + std::string(dlion::tensor::gemm_kernel_name()) +
       "\",\n";
  j += "  \"dlion_threads_env\": \"" +
       std::string(threads_env != nullptr ? threads_env : "") + "\",\n";
  j += "  \"gemm_single_thread\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    j += "    {\"trans_a\": ";
    j += r.ta ? "true" : "false";
    j += ", \"trans_b\": ";
    j += r.tb ? "true" : "false";
    j += ", \"m\": " + std::to_string(r.m) + ", \"n\": " + std::to_string(r.n) +
         ", \"k\": " + std::to_string(r.k);
    j += ", \"packed_gflops\": " + fmt(r.gflops);
    j += ", \"reference_gflops\": " + fmt(r.reference_gflops);
    j += ", \"speedup_vs_reference\": " +
         fmt(r.gflops / r.reference_gflops, 2);
    if (r.pre_pr_gflops > 0.0) {
      j += ", \"pre_pr_gflops\": " + fmt(r.pre_pr_gflops);
      j += ", \"speedup_vs_pre_pr\": " +
           fmt(r.gflops / r.pre_pr_gflops, 2);
    }
    j += ", \"max_abs_diff_vs_reference\": " + fmt(r.max_abs_diff, 8);
    j += "}";
    if (i + 1 < rows.size()) j += ",";
    j += "\n";
  }
  j += "  ],\n";
  j += "  \"gemm_small_single_thread\": [\n";
  for (std::size_t i = 0; i < small_rows.size(); ++i) {
    const auto& r = small_rows[i];
    j += std::string("    {\"op\": \"") + (r.ta ? "t" : "n") +
         (r.tb ? "t" : "n") + "\", \"m\": " + std::to_string(r.m) +
         ", \"n\": " + std::to_string(r.n) +
         ", \"k\": " + std::to_string(r.k);
    j += std::string(", \"operands\": \"") + operands_name(r.operands) + "\"";
    j += ", \"small_gflops\": " + fmt(r.gflops);
    j += ", \"reference_gflops\": " + fmt(r.reference_gflops);
    j += ", \"speedup_vs_reference\": " +
         fmt(r.gflops / r.reference_gflops, 2);
    j += ", \"small_bitmatch_vs_reference\": ";
    j += r.bitmatch ? "true" : "false";
    j += "}";
    if (i + 1 < small_rows.size()) j += ",";
    j += "\n";
  }
  j += "  ],\n";
  j += "  \"training_step\": {\n";
  j += "    \"model\": \"cipher\", \"batch\": 16, \"steps_timed\": " +
       std::to_string(steps) + ",\n";
  j += "    \"ms_per_step_median\": " + fmt(step.ms_median) + ",\n";
  j += "    \"allocs_per_step\": " + std::to_string(step.allocs_per_step) +
       ",\n";
  j += "    \"bytes_per_step\": " + std::to_string(step.bytes_per_step) + ",\n";
  j += "    \"pre_pr\": {\"ms_per_step\": " + fmt(kPrePrStepMs) +
       ", \"allocs_per_step\": " + std::to_string(kPrePrStepAllocs) +
       ", \"bytes_per_step\": " + std::to_string(kPrePrStepBytes) + "}\n";
  j += "  },\n";
  j += "  \"mobilenet_step\": {\n";
  j += "    \"model\": \"mobilenet-20\", \"image\": \"3x12x12\", "
       "\"train_batch\": " + std::to_string(kMobileNetTrainBatch) +
       ", \"eval_batch\": " + std::to_string(kMobileNetEvalBatch) +
       ", \"steps_timed\": " + std::to_string(steps) + ",\n";
  auto step_keys = [&j](const std::string& name, const StepStats& st,
                        const char* end) {
    j += "    \"" + name + "_ms_per_step_median\": " + fmt(st.ms_median) +
         ",\n";
    j += "    \"" + name + "_allocs_per_step\": " +
         std::to_string(st.allocs_per_step) + ",\n";
    j += "    \"" + name + "_bytes_per_step\": " +
         std::to_string(st.bytes_per_step) + end;
  };
  step_keys("train", mobilenet.train, ",\n");
  step_keys("eval", mobilenet.eval, "\n");
  j += "  },\n";
  j += "  \"max_n_selection\": {\n";
  j += "    \"elements\": 1000000, \"n_percent\": 1.0, \"selected\": " +
       std::to_string(maxn.selected) + ",\n";
  j += "    \"select_gelems_per_s\": " + fmt(maxn.select_gelems) + ",\n";
  j += "    \"count_gelems_per_s\": " + fmt(maxn.count_gelems) + "\n";
  j += "  },\n";
  j += "  \"link_selection\": {\n";
  j += "    \"model\": \"cipher-lite\", \"variables\": " +
       std::to_string(links.variables) +
       ", \"gradients\": " + std::to_string(kGradients) +
       ", \"intra_links\": " + std::to_string(kIntraLinks) +
       ", \"inter_links\": " + std::to_string(kInterLinks) + ",\n";
  j += "    \"selections_per_iteration\": " +
       std::to_string(links.selections_per_iteration) + ",\n";
  j += "    \"iterations_per_sec\": " + fmt(links.iterations_per_sec, 1) +
       ",\n";
  j += "    \"fresh_iterations_per_sec\": " +
       fmt(links.fresh_iterations_per_sec, 1) + ",\n";
  j += "    \"speedup_vs_fresh\": " +
       fmt(links.iterations_per_sec / links.fresh_iterations_per_sec, 2) +
       ",\n";
  j += "    \"top_k_us\": {\"n\": " + std::to_string(kTopKElems) +
       ", \"k\": " + std::to_string(kTopK) +
       ", \"threshold\": " + fmt(links.top_k_us, 2) +
       ", \"reference\": " + fmt(links.reference_top_k_us, 2) + "},\n";
  j += "    \"bitmatch_vs_fresh\": ";
  j += links.bitmatch ? "true" : "false";
  j += ",\n    \"bitmatch_vs_reference\": ";
  j += links.bitmatch_reference ? "true" : "false";
  j += "\n  },\n";
  j += "  \"comm\": {\n";
  j += "    \"slots\": 4, \"peers\": 3, \"exchanges\": 100,\n";
  j += "    \"msgs_per_sec\": " + fmt(comm.plain.msgs_per_sec, 1) + ",\n";
  j += "    \"payload_bytes_per_msg\": " +
       std::to_string(comm.payload_bytes_per_msg) + ",\n";
  j += "    \"payload_copies_per_msg\": " +
       std::to_string(comm.plain.copies_per_msg) + ",\n";
  j += "    \"payload_copy_bytes_per_msg\": " +
       std::to_string(comm.plain.copy_bytes_per_msg) + ",\n";
  j += "    \"allocs_per_msg_total\": " +
       std::to_string(comm.plain.allocs_per_msg_total) + ",\n";
  j += "    \"observed\": {\"msgs_per_sec\": " +
       fmt(comm.observed.msgs_per_sec, 1) +
       ", \"payload_copies_per_msg\": " +
       std::to_string(comm.observed.copies_per_msg) +
       ", \"allocs_per_msg_total\": " +
       std::to_string(comm.observed.allocs_per_msg_total) +
       ", \"trace_events_per_msg\": " +
       std::to_string(comm.observed_trace_events_per_msg) + "},\n";
  j += "    \"pre_pr\": {\"msgs_per_sec\": " + fmt(kPrePrCommMsgsPerSec, 1) +
       ", \"allocs_per_exchange\": " +
       std::to_string(kPrePrCommAllocsPerExchange) +
       ", \"payload_copies_per_msg\": " +
       std::to_string(kPrePrCommCopiesPerMsg) +
       ", \"payload_copy_bytes_per_msg\": " +
       std::to_string(kPrePrCommCopyBytesPerMsg) + "}\n";
  j += "  },\n";
  j += "  \"engine\": {\n";
  j += "    \"events\": " + std::to_string(engine.events) +
       ", \"capture_bytes\": 16, \"records\": " +
       std::to_string(engine.records) + ",\n";
  j += "    \"events_per_sec\": " + fmt(engine.events_per_sec, 1) + ",\n";
  j += "    \"allocs_per_event\": " + fmt(engine.allocs_per_event) + ",\n";
  j += "    \"allocs_per_span_record\": " +
       fmt(engine.allocs_per_span_record) + ",\n";
  j += "    \"allocs_per_flow_record\": " +
       fmt(engine.allocs_per_flow_record) + ",\n";
  j += "    \"pre_pr\": {\"allocs_per_event\": " +
       std::to_string(kPrePrAllocsPerEvent) +
       ", \"allocs_per_span_record\": " +
       std::to_string(kPrePrAllocsPerRecord) +
       ", \"allocs_per_flow_record\": " +
       std::to_string(kPrePrAllocsPerRecord) + "}\n";
  j += "  },\n";
  j += "  \"determinism\": {\n";
  j += "    \"train_steps\": " + std::to_string(det_steps) + ",\n";
  j += "    \"weights_checksum_serial\": \"" + hex64(sum_serial) + "\",\n";
  j += "    \"weights_checksum_parallel\": \"" + hex64(sum_parallel) + "\",\n";
  j += "    \"serial_parallel_bitmatch\": ";
  j += bitmatch ? "true" : "false";
  j += "\n  }\n";
  j += "}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hotpath: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);

  std::printf("%s", j.c_str());
  std::printf("[hotpath] kernel=%s 256^3 nn: %.2f GF/s (%.2fx vs pre-PR)\n",
              dlion::tensor::gemm_kernel_name(), rows[0].gflops,
              rows[0].gflops / kPrePrGemm[0].gflops);
  std::printf("[hotpath] step: %.2f ms, %llu allocs, %llu bytes (pre-PR %.2f "
              "ms, %llu allocs)\n",
              step.ms_median,
              static_cast<unsigned long long>(step.allocs_per_step),
              static_cast<unsigned long long>(step.bytes_per_step),
              kPrePrStepMs,
              static_cast<unsigned long long>(kPrePrStepAllocs));
  std::printf("[hotpath] mobilenet-20: train %.2f ms, %llu allocs, %llu "
              "bytes; eval %.2f ms, %llu allocs, %llu bytes\n",
              mobilenet.train.ms_median,
              static_cast<unsigned long long>(mobilenet.train.allocs_per_step),
              static_cast<unsigned long long>(mobilenet.train.bytes_per_step),
              mobilenet.eval.ms_median,
              static_cast<unsigned long long>(mobilenet.eval.allocs_per_step),
              static_cast<unsigned long long>(mobilenet.eval.bytes_per_step));
  std::printf("[hotpath] comm: %.0f msgs/s, %llu payload copies/msg (%llu "
              "bytes), %llu allocs/msg; observed %.0f msgs/s, %llu "
              "allocs/msg, %llu trace events/msg\n",
              comm.plain.msgs_per_sec,
              static_cast<unsigned long long>(comm.plain.copies_per_msg),
              static_cast<unsigned long long>(comm.plain.copy_bytes_per_msg),
              static_cast<unsigned long long>(
                  comm.plain.allocs_per_msg_total),
              comm.observed.msgs_per_sec,
              static_cast<unsigned long long>(
                  comm.observed.allocs_per_msg_total),
              static_cast<unsigned long long>(
                  comm.observed_trace_events_per_msg));
  std::printf("[hotpath] engine: %.3f allocs/event, %.3f allocs/span "
              "record, %.3f allocs/flow record (pre-PR %llu, %llu, %llu)\n",
              engine.allocs_per_event, engine.allocs_per_span_record,
              engine.allocs_per_flow_record,
              static_cast<unsigned long long>(kPrePrAllocsPerEvent),
              static_cast<unsigned long long>(kPrePrAllocsPerRecord),
              static_cast<unsigned long long>(kPrePrAllocsPerRecord));
  std::printf("[hotpath] link selection: %.0f it/s shared vs %.0f it/s fresh "
              "per link, %zu selections/iteration, bitmatch %s, vs "
              "reference %s\n",
              links.iterations_per_sec, links.fresh_iterations_per_sec,
              links.selections_per_iteration, links.bitmatch ? "yes" : "NO",
              links.bitmatch_reference ? "yes" : "NO");
  std::printf("[hotpath] top-k n=%zu k=%zu: %.2f us threshold, %.2f us "
              "reference\n",
              kTopKElems, kTopK, links.top_k_us, links.reference_top_k_us);
  std::printf("[hotpath] determinism bitmatch: %s\n",
              bitmatch ? "yes" : "NO");
  const bool small_bitmatch =
      std::all_of(small_rows.begin(), small_rows.end(),
                  [](const GemmRow& r) { return r.bitmatch; });
  std::printf("[hotpath] small GEMM bitmatch vs reference: %s\n",
              small_bitmatch ? "yes" : "NO");
  std::printf("[hotpath] wrote %s\n", out_path.c_str());
  return bitmatch && small_bitmatch && links.bitmatch &&
                 links.bitmatch_reference
             ? 0
             : 2;
}
