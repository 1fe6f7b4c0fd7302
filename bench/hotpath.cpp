// Hot-path benchmark: GEMM throughput, training-step latency/allocations,
// Max-N selection throughput, and training determinism checksums.
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
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "comm/fabric.h"
#include "common/rng.h"
#include "core/gradient_select.h"
#include "core/weighted_update.h"
#include "nn/model_zoo.h"
#include "sim/engine.h"
#include "sim/network.h"
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

struct GemmRow {
  bool ta, tb;
  std::size_t m, n, k;
  double gflops;  // tensor::gemm: packed path, or small kernels below cutoff
  double reference_gflops;
  double max_abs_diff;
  bool bitmatch;         // gemm() output memcmp-equal to reference_gemm
  double pre_pr_gflops;  // 0 when no frozen anchor for this shape
};

GemmRow bench_gemm_shape(bool ta, bool tb, std::size_t m, std::size_t n,
                         std::size_t k, dlion::common::Rng& rng) {
  const std::size_t a_elems = m * k, b_elems = k * n, c_elems = m * n;
  std::vector<float> a(a_elems), b(b_elems), c_packed(c_elems),
      c_ref(c_elems);
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));

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

  GemmRow row{ta, tb, m, n, k, flops / t_packed / 1e9, flops / t_ref / 1e9,
              max_diff, bitmatch, 0.0};
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

  // Warm-up: populate scratch buffers / pools so the measured steps see the
  // steady state (the interesting regime for a long training run).
  for (int i = 0; i < 3; ++i) {
    bm.model.compute_gradients(images, labels);
    bm.model.sgd_step(0.01f);
  }

  std::vector<double> ms(static_cast<std::size_t>(steps));
  benchalloc::start();
  for (int i = 0; i < steps; ++i) {
    const auto t0 = Clock::now();
    bm.model.compute_gradients(images, labels);
    bm.model.sgd_step(0.01f);
    ms[static_cast<std::size_t>(i)] = seconds_since(t0) * 1e3;
  }
  const benchalloc::Totals totals = benchalloc::stop();
  const std::uint64_t allocs = totals.count;
  const std::uint64_t bytes = totals.bytes;

  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], allocs / static_cast<std::uint64_t>(steps),
          bytes / static_cast<std::uint64_t>(steps)};
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

struct CommStats {
  double msgs_per_sec = 0.0;
  std::uint64_t allocs_per_msg_total = 0;      ///< incl. simulator transport
  std::uint64_t allocs_per_msg_transport = 0;  ///< empty-payload baseline
  std::uint64_t allocs_per_exchange = 0;       ///< data-plane = total - transport
  std::uint64_t copies_per_msg = 0;            ///< payload materializations
  std::uint64_t copy_bytes_per_msg = 0;        ///< bytes duplicated per message
  std::uint64_t payload_bytes_per_msg = 0;     ///< gradient bytes carried
};

/// Warm-data-path gradient exchange: one sender fans a dense Max-100 update
/// out to 3 peers over the fabric; each peer applies it on delivery. The
/// alloc budget CI enforces is `allocs_per_exchange` — the data-plane
/// allocations per message over the empty-payload transport baseline, so
/// simulator event-queue overhead (std::function captures, timer nodes)
/// does not mask payload-path regressions.
CommStats bench_comm(int exchanges) {
  constexpr std::size_t kSlots = 4;  // 1 sender + 3 receivers
  dlion::sim::Engine engine;
  dlion::sim::Network net(engine, kSlots);
  dlion::comm::Fabric fabric(net);

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
  receivers.reserve(kSlots - 1);  // handlers capture stable model pointers
  for (std::size_t r = 1; r < kSlots; ++r) {
    dlion::common::Rng peer_rng(21);
    receivers.push_back(dlion::nn::make_cipher_cnn(peer_rng));
    dlion::nn::Model* peer_model = &receivers.back().model;
    fabric.attach(r, [peer_model](std::size_t, dlion::comm::MessagePtr msg) {
      if (const auto* gu =
              std::get_if<dlion::comm::GradientUpdate>(msg.get())) {
        dlion::core::apply_gradient_update(*peer_model, *gu, 0.01f, kSlots,
                                           1.0);
      }
    });
  }

  const std::size_t nvars = sender.model.num_variables();

  // The worker's warm data path in miniature: select each variable's
  // gradient into arena-backed views once per iteration, then every peer's
  // message shares those views (copying a VariableGrad increfs blocks).
  dlion::comm::PayloadArena arena;
  const auto do_exchange = [&](std::uint64_t iter, bool payload) {
    std::vector<dlion::comm::VariableGrad> staged;
    if (payload) {
      dlion::comm::PayloadWriter writer(arena);
      staged.reserve(nvars);
      for (std::size_t v = 0; v < nvars; ++v) {
        staged.push_back(dlion::core::select_max_n(
            sender.model.variables()[v]->grad().span(), v, 100.0, writer));
      }
    }
    for (std::size_t peer = 1; peer < kSlots; ++peer) {
      dlion::comm::GradientUpdate u;
      u.from = 0;
      u.iteration = iter;
      u.lbs = 32;
      if (payload) u.vars = staged;  // shared views, no payload bytes move
      fabric.send(0, peer, std::move(u));
    }
    engine.run();
  };

  for (int i = 0; i < 10; ++i) do_exchange(static_cast<std::uint64_t>(i), true);

  // Actual bytes one message carries, measured on a staged sample.
  std::uint64_t staged_bytes = 0;
  {
    dlion::comm::PayloadWriter writer(arena);
    dlion::comm::GradientUpdate sample;
    for (std::size_t v = 0; v < nvars; ++v) {
      sample.vars.push_back(dlion::core::select_max_n(
          sender.model.variables()[v]->grad().span(), v, 100.0, writer));
    }
    staged_bytes = dlion::comm::payload_bytes(dlion::comm::Message(sample));
  }

  const std::uint64_t msgs =
      static_cast<std::uint64_t>(exchanges) * (kSlots - 1);
  const std::uint64_t copies0 = dlion::comm::payload_copy_count();
  const std::uint64_t copy_bytes0 = dlion::comm::payload_copy_bytes();
  benchalloc::start();
  const auto t0 = Clock::now();
  for (int i = 0; i < exchanges; ++i) {
    do_exchange(static_cast<std::uint64_t>(10 + i), true);
  }
  const double elapsed = seconds_since(t0);
  const benchalloc::Totals data = benchalloc::stop();
  const std::uint64_t copies = dlion::comm::payload_copy_count() - copies0;
  const std::uint64_t copy_bytes =
      dlion::comm::payload_copy_bytes() - copy_bytes0;

  // Transport baseline: same fan-out with empty payloads.
  benchalloc::start();
  for (int i = 0; i < exchanges; ++i) {
    do_exchange(static_cast<std::uint64_t>(10 + exchanges + i), false);
  }
  const benchalloc::Totals transport = benchalloc::stop();

  CommStats s;
  s.msgs_per_sec = static_cast<double>(msgs) / elapsed;
  s.allocs_per_msg_total = data.count / msgs;
  s.allocs_per_msg_transport = transport.count / msgs;
  s.allocs_per_exchange =
      s.allocs_per_msg_total > s.allocs_per_msg_transport
          ? s.allocs_per_msg_total - s.allocs_per_msg_transport
          : 0;
  // Global payload-copy counters: zero on the warm path - every payload is
  // produced once in the arena and shared by view from there.
  s.copies_per_msg = copies / msgs;
  s.copy_bytes_per_msg = copy_bytes / msgs;
  s.payload_bytes_per_msg = staged_bytes;
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
  // MobileNet's per-sample pointwise and depthwise-stage convs.
  std::vector<GemmRow> small_rows;
  small_rows.push_back(bench_gemm_shape(false, true, 32, 64, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 512, 10, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 96, 4, 48, rng));
  small_rows.push_back(bench_gemm_shape(false, false, 48, 9, 48, rng));
  small_rows.push_back(bench_gemm_shape(true, false, 64, 48, 32, rng));
  dlion::tensor::set_gemm_parallel(prev_parallel);

  // --- Training step latency + allocations (pool default threading). ----
  const StepStats step = bench_training_step(steps);

  // --- Max-N selection throughput. ---------------------------------------
  const MaxNStats maxn = bench_max_n(1'000'000, 1.0);

  // --- Comm data plane: gradient exchange over the fabric. ---------------
  const CommStats comm = bench_comm(100);

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
  j += "  \"max_n_selection\": {\n";
  j += "    \"elements\": 1000000, \"n_percent\": 1.0, \"selected\": " +
       std::to_string(maxn.selected) + ",\n";
  j += "    \"select_gelems_per_s\": " + fmt(maxn.select_gelems) + ",\n";
  j += "    \"count_gelems_per_s\": " + fmt(maxn.count_gelems) + "\n";
  j += "  },\n";
  j += "  \"comm\": {\n";
  j += "    \"slots\": 4, \"peers\": 3, \"exchanges\": 100,\n";
  j += "    \"msgs_per_sec\": " + fmt(comm.msgs_per_sec, 1) + ",\n";
  j += "    \"payload_bytes_per_msg\": " +
       std::to_string(comm.payload_bytes_per_msg) + ",\n";
  j += "    \"payload_copies_per_msg\": " +
       std::to_string(comm.copies_per_msg) + ",\n";
  j += "    \"payload_copy_bytes_per_msg\": " +
       std::to_string(comm.copy_bytes_per_msg) + ",\n";
  j += "    \"allocs_per_msg_total\": " +
       std::to_string(comm.allocs_per_msg_total) + ",\n";
  j += "    \"allocs_per_msg_transport\": " +
       std::to_string(comm.allocs_per_msg_transport) + ",\n";
  j += "    \"allocs_per_exchange\": " +
       std::to_string(comm.allocs_per_exchange) + ",\n";
  j += "    \"pre_pr\": {\"msgs_per_sec\": " + fmt(kPrePrCommMsgsPerSec, 1) +
       ", \"allocs_per_exchange\": " +
       std::to_string(kPrePrCommAllocsPerExchange) +
       ", \"payload_copies_per_msg\": " +
       std::to_string(kPrePrCommCopiesPerMsg) +
       ", \"payload_copy_bytes_per_msg\": " +
       std::to_string(kPrePrCommCopyBytesPerMsg) + "}\n";
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
  std::printf("[hotpath] comm: %.0f msgs/s, %llu payload copies/msg (%llu "
              "bytes), %llu allocs/exchange\n",
              comm.msgs_per_sec,
              static_cast<unsigned long long>(comm.copies_per_msg),
              static_cast<unsigned long long>(comm.copy_bytes_per_msg),
              static_cast<unsigned long long>(comm.allocs_per_exchange));
  std::printf("[hotpath] determinism bitmatch: %s\n",
              bitmatch ? "yes" : "NO");
  const bool small_bitmatch =
      std::all_of(small_rows.begin(), small_rows.end(),
                  [](const GemmRow& r) { return r.bitmatch; });
  std::printf("[hotpath] small GEMM bitmatch vs reference: %s\n",
              small_bitmatch ? "yes" : "NO");
  std::printf("[hotpath] wrote %s\n", out_path.c_str());
  return bitmatch && small_bitmatch ? 0 : 2;
}
