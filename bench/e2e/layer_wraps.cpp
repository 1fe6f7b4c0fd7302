// Link-time layer tracing for dlion_bench_traced.
//
// CMakeLists.txt links this file with -Wl,--wrap=<symbol> for every mangled
// symbol quoted in a WRAP(...) below. The linker then sends each call one
// library object makes into another object's wrapped function to
// __wrap_<symbol>, defined here, which times the call and forwards to
// __real_<symbol>, the original. No library source changes. A call a
// function makes inside its own object file (Model::compute_gradients into
// Model::forward, tensor::matmul into tensor::gemm) is not redirected and
// counts as the caller's self time.
//
// Each wrapper holds a Scope for the length of the call. Scopes form a
// stack, so a boundary's self time is its inclusive time minus the
// inclusive time of the wrapped calls made beneath it. Every wrapped call
// runs on the simulation thread (the packed GEMM fans out to pool threads
// only inside tensor::gemm, below the wrapper), so the totals are plain
// globals written by that one thread; a call from any other thread is
// counted in trace_foreign_calls() instead and fails the self-check.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "comm/fabric.h"
#include "comm/message.h"
#include "core/cluster.h"
#include "core/gradient_select.h"
#include "core/weighted_update.h"
#include "data/dataset.h"
#include "layer_trace.h"
#include "nn/model.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "tensor/ops.h"

namespace e2e = dlion::bench::e2e;

namespace {

struct Boundary;
constinit Boundary* g_boundaries = nullptr;  // intrusive list, newest first

struct Boundary {
  Boundary(const char* n, const char* g) : name(n), group(g) {
    next = g_boundaries;
    g_boundaries = this;
  }
  Boundary(const Boundary&) = delete;  // registered by address
  Boundary& operator=(const Boundary&) = delete;
  const char* name;
  const char* group;
  Boundary* next = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
  double work = 0.0;
  std::uint64_t kept = 0;
};

struct Frame {
  std::uint64_t t0 = 0;
  std::uint64_t child_ns = 0;
};

std::atomic<bool> g_started{false};
std::atomic<std::uint64_t> g_foreign{0};
thread_local bool t_recording = false;
thread_local std::vector<Frame> t_stack;

using ShapeKey = std::tuple<bool, bool, std::size_t, std::size_t, std::size_t>;
std::map<ShapeKey, e2e::GemmShape> g_census;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Scope {
 public:
  /// `also_self` (optional) receives this call's self time as well.
  explicit Scope(Boundary& b, std::uint64_t* also_self = nullptr) {
    if (!t_recording) {
      if (g_started.load(std::memory_order_relaxed)) {
        g_foreign.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    b_ = &b;
    also_self_ = also_self;
    t_stack.push_back({now_ns(), 0});
  }
  ~Scope() {
    if (b_ == nullptr) return;
    const Frame f = t_stack.back();
    t_stack.pop_back();
    const std::uint64_t dt = now_ns() - f.t0;
    const std::uint64_t self = dt - f.child_ns;
    ++b_->calls;
    b_->incl_ns += dt;
    b_->self_ns += self;
    if (also_self_ != nullptr) *also_self_ += self;
    if (!t_stack.empty()) t_stack.back().child_ns += dt;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void work(double w) {
    if (b_ != nullptr) b_->work += w;
  }
  void kept(std::uint64_t k) {
    if (b_ != nullptr) b_->kept += k;
  }

 private:
  Boundary* b_ = nullptr;
  std::uint64_t* also_self_ = nullptr;
};

// tensor::gemm sends problems below this many multiply-adds to its
// reference kernel and larger ones to the packed kernel
// (kPackedMulAddThreshold in src/tensor/ops.cpp); the trace splits there.
constexpr std::size_t kSmallGemmMulAdds = std::size_t{1} << 19;

Boundary b_gemm_small{"tensor::gemm[small]", "tensor.gemm_small"};
Boundary b_gemm_large{"tensor::gemm[large]", "tensor.gemm_large"};
Boundary b_im2col{"tensor::im2col", "tensor.im2col"};
Boundary b_col2im{"tensor::col2im", "tensor.im2col"};
Boundary b_add_bias_rows{"tensor::add_bias_rows", "tensor.epilogue"};
Boundary b_add_bias_rows_relu{"tensor::add_bias_rows_relu",
                              "tensor.epilogue"};
Boundary b_add_bias_rows_relu_mask{"tensor::add_bias_rows_relu/mask",
                                   "tensor.epilogue"};
Boundary b_add_bias_channels{"tensor::add_bias_channels", "tensor.epilogue"};
Boundary b_add_bias_channels_relu{"tensor::add_bias_channels_relu",
                                  "tensor.epilogue"};
Boundary b_apply_mask{"tensor::apply_mask", "tensor.epilogue"};
Boundary b_compute_gradients{"nn::Model::compute_gradients", "nn.train_step"};
Boundary b_evaluate{"nn::Model::evaluate", "nn.eval"};
Boundary b_forward{"nn::Model::forward", "nn.forward"};
Boundary b_magnitudes{"core::magnitudes", "core.select"};
Boundary b_count_max_n{"core::count_max_n", "core.select"};
Boundary b_count_max_n_mags{"core::count_max_n_mags", "core.select"};
Boundary b_select_max_n{"core::select_max_n", "core.select"};
Boundary b_select_max_n_w{"core::select_max_n/writer", "core.select"};
Boundary b_select_top_k{"core::select_top_k", "core.select"};
Boundary b_select_top_k_w{"core::select_top_k/writer", "core.select"};
Boundary b_select_top_k_mags{"core::select_top_k_mags", "core.select"};
Boundary b_select_top_k_mags_w{"core::select_top_k_mags/writer",
                               "core.select"};
Boundary b_dense_grad{"core::dense_grad", "core.select"};
Boundary b_dense_grad_w{"core::dense_grad/writer", "core.select"};
Boundary b_equivalent_n{"core::equivalent_n", "core.select"};
Boundary b_equivalent_n_thr{"core::equivalent_n_from_threshold",
                            "core.select"};
Boundary b_apply_gradient_update{"core::apply_gradient_update",
                                 "core.update"};
Boundary b_apply_own_gradients{"core::apply_own_gradients", "core.update"};
Boundary b_assign_weights{"core::assign_weights", "core.update"};
Boundary b_fabric_send{"comm::Fabric::send", "comm.send"};
Boundary b_fabric_broadcast{"comm::Fabric::broadcast", "comm.send"};
Boundary b_fabric_broadcast_targets{"comm::Fabric::broadcast/targets",
                                    "comm.send"};
Boundary b_fabric_send_reliable{"comm::Fabric::send_reliable", "comm.send"};
Boundary b_queue_push{"sim::EventQueue::push", "sim.queue"};
Boundary b_queue_pop{"sim::EventQueue::pop", "sim.queue"};
Boundary b_network_send{"sim::Network::send", "sim.network"};
Boundary b_engine_run{"sim::Engine::run", "sim.dispatch"};
Boundary b_engine_run_until{"sim::Engine::run_until", "sim.dispatch"};
Boundary b_tracer_begin{"obs::Tracer::begin", "obs"};
Boundary b_tracer_end{"obs::Tracer::end", "obs"};
Boundary b_tracer_complete{"obs::Tracer::complete", "obs"};
Boundary b_tracer_instant{"obs::Tracer::instant", "obs"};
Boundary b_tracer_counter{"obs::Tracer::counter", "obs"};
Boundary b_tracer_flow{"obs::Tracer::flow", "obs"};
Boundary b_histogram_observe{"obs::Histogram::observe", "obs"};
Boundary b_sampler_next{"data::MinibatchSampler::next", "data.sample"};
Boundary b_cluster_ctor{"core::Cluster::Cluster", "exp.cluster_build"};

}  // namespace

// WRAP(ret, name, "<mangled symbol>", params...) declares __real_<symbol> as
// real_<name> and __wrap_<symbol> as wrap_<name>, then opens the definition
// of wrap_<name>. Member functions are declared as free functions taking
// `this` first, which is how the Itanium C++ ABI passes it.
#define WRAP(ret, name, sym, ...)                    \
  ret real_##name(__VA_ARGS__) __asm__("__real_" sym); \
  ret wrap_##name(__VA_ARGS__) __asm__("__wrap_" sym); \
  ret wrap_##name(__VA_ARGS__)

using dlion::comm::Fabric;
using dlion::comm::Message;
using dlion::comm::PayloadWriter;
using dlion::comm::VariableGrad;
using dlion::nn::Model;
using dlion::tensor::Tensor;
using FloatSpan = std::span<const float>;
using LabelSpan = std::span<const std::int32_t>;

// ---------------------------------------------------------------- tensor

WRAP(void, gemm, "_ZN5dlion6tensor4gemmEbbmmmfPKfS2_fPf",
     bool ta, bool tb, std::size_t m, std::size_t n, std::size_t k,
     float alpha, const float* a, const float* b, float beta, float* c) {
  std::uint64_t* shape_self_ns = nullptr;
  if (t_recording) {
    e2e::GemmShape& shape = g_census[{ta, tb, m, n, k}];
    ++shape.calls;
    shape_self_ns = &shape.self_ns;
  }
  Scope s(m * n * k < kSmallGemmMulAdds ? b_gemm_small : b_gemm_large,
          shape_self_ns);
  s.work(2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k));
  real_gemm(ta, tb, m, n, k, alpha, a, b, beta, c);
}

WRAP(void, im2col, "_ZN5dlion6tensor6im2colEPKfmmmmmmmPf",
     const float* img, std::size_t channels, std::size_t height,
     std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
     std::size_t pad, float* col) {
  Scope s(b_im2col);
  real_im2col(img, channels, height, width, kh, kw, stride, pad, col);
}

WRAP(void, col2im, "_ZN5dlion6tensor6col2imEPKfmmmmmmmPf",
     const float* col, std::size_t channels, std::size_t height,
     std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
     std::size_t pad, float* img) {
  Scope s(b_col2im);
  real_col2im(col, channels, height, width, kh, kw, stride, pad, img);
}

WRAP(void, add_bias_rows, "_ZN5dlion6tensor13add_bias_rowsERNS0_6TensorERKS1_",
     Tensor& m_by_n, const Tensor& bias) {
  Scope s(b_add_bias_rows);
  real_add_bias_rows(m_by_n, bias);
}

WRAP(void, add_bias_rows_relu, "_ZN5dlion6tensor18add_bias_rows_reluEPfmmPKf",
     float* data, std::size_t rows, std::size_t cols, const float* bias) {
  Scope s(b_add_bias_rows_relu);
  real_add_bias_rows_relu(data, rows, cols, bias);
}

WRAP(void, add_bias_rows_relu_mask,
     "_ZN5dlion6tensor18add_bias_rows_reluEPfmmPKfS1_",
     float* data, std::size_t rows, std::size_t cols, const float* bias,
     float* mask) {
  Scope s(b_add_bias_rows_relu_mask);
  real_add_bias_rows_relu_mask(data, rows, cols, bias, mask);
}

WRAP(void, add_bias_channels, "_ZN5dlion6tensor17add_bias_channelsEPfmmmPKf",
     float* data, std::size_t images, std::size_t channels, std::size_t plane,
     const float* bias) {
  Scope s(b_add_bias_channels);
  real_add_bias_channels(data, images, channels, plane, bias);
}

WRAP(void, add_bias_channels_relu,
     "_ZN5dlion6tensor22add_bias_channels_reluEPfmmmPKfS1_",
     float* data, std::size_t images, std::size_t channels, std::size_t plane,
     const float* bias, float* mask) {
  Scope s(b_add_bias_channels_relu);
  real_add_bias_channels_relu(data, images, channels, plane, bias, mask);
}

WRAP(void, apply_mask, "_ZN5dlion6tensor10apply_maskEPKfS2_Pfm",
     const float* grad, const float* mask, float* dst, std::size_t n) {
  Scope s(b_apply_mask);
  real_apply_mask(grad, mask, dst, n);
}

// -------------------------------------------------------------------- nn

WRAP(dlion::nn::LossResult, compute_gradients,
     "_ZN5dlion2nn5Model17compute_gradientsERKNS_6tensor6TensorESt4spanIKiLm18446744073709551615EE",
     Model* self, const Tensor& input, LabelSpan labels) {
  Scope s(b_compute_gradients);
  return real_compute_gradients(self, input, labels);
}

WRAP(dlion::nn::LossResult, evaluate,
     "_ZN5dlion2nn5Model8evaluateERKNS_6tensor6TensorESt4spanIKiLm18446744073709551615EE",
     Model* self, const Tensor& input, LabelSpan labels) {
  Scope s(b_evaluate);
  return real_evaluate(self, input, labels);
}

WRAP(Tensor, forward, "_ZN5dlion2nn5Model7forwardERKNS_6tensor6TensorEb",
     Model* self, const Tensor& input, bool train) {
  Scope s(b_forward);
  return real_forward(self, input, train);
}

// ------------------------------------------------------------------ core

WRAP(float, magnitudes,
     "_ZN5dlion4core10magnitudesESt4spanIKfLm18446744073709551615EERSt6vectorIfSaIfEE",
     FloatSpan grad, std::vector<float>& mags) {
  Scope s(b_magnitudes);
  s.work(static_cast<double>(grad.size()));
  return real_magnitudes(grad, mags);
}

WRAP(std::size_t, count_max_n,
     "_ZN5dlion4core11count_max_nESt4spanIKfLm18446744073709551615EEd",
     FloatSpan grad, double n) {
  Scope s(b_count_max_n);
  s.work(static_cast<double>(grad.size()));
  return real_count_max_n(grad, n);
}

WRAP(std::size_t, count_max_n_mags,
     "_ZN5dlion4core16count_max_n_magsESt4spanIKfLm18446744073709551615EEfd",
     FloatSpan mags, float max_abs, double n) {
  Scope s(b_count_max_n_mags);
  s.work(static_cast<double>(mags.size()));
  return real_count_max_n_mags(mags, max_abs, n);
}

WRAP(VariableGrad, select_max_n,
     "_ZN5dlion4core12select_max_nESt4spanIKfLm18446744073709551615EEjd",
     FloatSpan grad, std::uint32_t var_index, double n) {
  Scope s(b_select_max_n);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_select_max_n(grad, var_index, n);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, select_max_n_w,
     "_ZN5dlion4core12select_max_nESt4spanIKfLm18446744073709551615EEjdRNS_4comm13PayloadWriterE",
     FloatSpan grad, std::uint32_t var_index, double n,
     PayloadWriter& writer) {
  Scope s(b_select_max_n_w);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_select_max_n_w(grad, var_index, n, writer);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, select_top_k,
     "_ZN5dlion4core12select_top_kESt4spanIKfLm18446744073709551615EEjm",
     FloatSpan grad, std::uint32_t var_index, std::size_t k) {
  Scope s(b_select_top_k);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_select_top_k(grad, var_index, k);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, select_top_k_w,
     "_ZN5dlion4core12select_top_kESt4spanIKfLm18446744073709551615EEjmRNS_4comm13PayloadWriterE",
     FloatSpan grad, std::uint32_t var_index, std::size_t k,
     PayloadWriter& writer) {
  Scope s(b_select_top_k_w);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_select_top_k_w(grad, var_index, k, writer);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, select_top_k_mags,
     "_ZN5dlion4core17select_top_k_magsESt4spanIKfLm18446744073709551615EES3_jmPf",
     FloatSpan grad, FloatSpan mags, std::uint32_t var_index, std::size_t k,
     float* kth_mag) {
  Scope s(b_select_top_k_mags);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_select_top_k_mags(grad, mags, var_index, k, kth_mag);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, select_top_k_mags_w,
     "_ZN5dlion4core17select_top_k_magsESt4spanIKfLm18446744073709551615EES3_jmRNS_4comm13PayloadWriterEPf",
     FloatSpan grad, FloatSpan mags, std::uint32_t var_index, std::size_t k,
     PayloadWriter& writer, float* kth_mag) {
  Scope s(b_select_top_k_mags_w);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r =
      real_select_top_k_mags_w(grad, mags, var_index, k, writer, kth_mag);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, dense_grad,
     "_ZN5dlion4core10dense_gradESt4spanIKfLm18446744073709551615EEj",
     FloatSpan grad, std::uint32_t var_index) {
  Scope s(b_dense_grad);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_dense_grad(grad, var_index);
  s.kept(r.num_entries());
  return r;
}

WRAP(VariableGrad, dense_grad_w,
     "_ZN5dlion4core10dense_gradESt4spanIKfLm18446744073709551615EEjRNS_4comm13PayloadWriterE",
     FloatSpan grad, std::uint32_t var_index, PayloadWriter& writer) {
  Scope s(b_dense_grad_w);
  s.work(static_cast<double>(grad.size()));
  VariableGrad r = real_dense_grad_w(grad, var_index, writer);
  s.kept(r.num_entries());
  return r;
}

WRAP(double, equivalent_n,
     "_ZN5dlion4core12equivalent_nESt4spanIKfLm18446744073709551615EEm",
     FloatSpan grad, std::size_t k) {
  Scope s(b_equivalent_n);
  s.work(static_cast<double>(grad.size()));
  return real_equivalent_n(grad, k);
}

WRAP(double, equivalent_n_from_threshold,
     "_ZN5dlion4core27equivalent_n_from_thresholdEff",
     float max_abs, float kth_mag) {
  Scope s(b_equivalent_n_thr);
  return real_equivalent_n_from_threshold(max_abs, kth_mag);
}

WRAP(void, apply_gradient_update,
     "_ZN5dlion4core21apply_gradient_updateERNS_2nn5ModelERKNS_4comm14GradientUpdateEdmd",
     Model& model, const dlion::comm::GradientUpdate& update, double eta,
     std::size_t n_workers, double db) {
  Scope s(b_apply_gradient_update);
  real_apply_gradient_update(model, update, eta, n_workers, db);
}

WRAP(void, apply_own_gradients,
     "_ZN5dlion4core19apply_own_gradientsERNS_2nn5ModelEdmd",
     Model& model, double eta, std::size_t n_workers, double db) {
  Scope s(b_apply_own_gradients);
  real_apply_own_gradients(model, eta, n_workers, db);
}

WRAP(void, assign_weights,
     "_ZN5dlion4core14assign_weightsERNS_2nn5ModelERKNS_4comm13WeightPayloadE",
     Model& model, const dlion::comm::WeightPayload& weights) {
  Scope s(b_assign_weights);
  real_assign_weights(model, weights);
}

WRAP(void, cluster_ctor,
     "_ZN5dlion4core7ClusterC1ERKNS0_11ClusterSpecERKNS_4data7DatasetES8_",
     dlion::core::Cluster* self, const dlion::core::ClusterSpec& spec,
     const dlion::data::Dataset& train, const dlion::data::Dataset& test) {
  Scope s(b_cluster_ctor);
  real_cluster_ctor(self, spec, train, test);
}

// ------------------------------------------------------------------ comm

WRAP(void, fabric_send,
     "_ZN5dlion4comm6Fabric4sendEmmSt7variantIJNS0_14GradientUpdateENS0_14WeightSnapshotENS0_10LossReportENS0_10DktRequestENS0_9RcpReportENS0_9HeartbeatENS0_3AckENS0_12RosterUpdateENS0_16BootstrapRequestENS0_14BootstrapChunkENS0_12ModelPublishEEE",
     Fabric* self, std::size_t from, std::size_t to, Message msg) {
  Scope s(b_fabric_send);
  real_fabric_send(self, from, to, std::move(msg));
}

WRAP(void, fabric_broadcast,
     "_ZN5dlion4comm6Fabric9broadcastEmRKSt7variantIJNS0_14GradientUpdateENS0_14WeightSnapshotENS0_10LossReportENS0_10DktRequestENS0_9RcpReportENS0_9HeartbeatENS0_3AckENS0_12RosterUpdateENS0_16BootstrapRequestENS0_14BootstrapChunkENS0_12ModelPublishEEE",
     Fabric* self, std::size_t from, const Message& msg) {
  Scope s(b_fabric_broadcast);
  real_fabric_broadcast(self, from, msg);
}

WRAP(void, fabric_broadcast_targets,
     "_ZN5dlion4comm6Fabric9broadcastEmRKSt7variantIJNS0_14GradientUpdateENS0_14WeightSnapshotENS0_10LossReportENS0_10DktRequestENS0_9RcpReportENS0_9HeartbeatENS0_3AckENS0_12RosterUpdateENS0_16BootstrapRequestENS0_14BootstrapChunkENS0_12ModelPublishEEERKSt6vectorIbSaIbEE",
     Fabric* self, std::size_t from, const Message& msg,
     const std::vector<bool>& targets) {
  Scope s(b_fabric_broadcast_targets);
  real_fabric_broadcast_targets(self, from, msg, targets);
}

WRAP(std::uint64_t, fabric_send_reliable,
     "_ZN5dlion4comm6Fabric13send_reliableEmmSt7variantIJNS0_14GradientUpdateENS0_14WeightSnapshotENS0_10LossReportENS0_10DktRequestENS0_9RcpReportENS0_9HeartbeatENS0_3AckENS0_12RosterUpdateENS0_16BootstrapRequestENS0_14BootstrapChunkENS0_12ModelPublishEEERKNS0_11RetryPolicyESt8functionIFvbEE",
     Fabric* self, std::size_t from, std::size_t to, Message msg,
     const dlion::comm::RetryPolicy& policy, Fabric::ReliableCallback done) {
  Scope s(b_fabric_send_reliable);
  return real_fabric_send_reliable(self, from, to, std::move(msg), policy,
                                   std::move(done));
}

// ------------------------------------------------------------------- sim

WRAP(dlion::sim::EventId, queue_push,
     "_ZN5dlion3sim10EventQueue4pushEdSt8functionIFvvEE",
     dlion::sim::EventQueue* self, dlion::common::SimTime t,
     dlion::sim::EventFn fn) {
  Scope s(b_queue_push);
  return real_queue_push(self, t, std::move(fn));
}

WRAP(dlion::sim::EventQueue::Popped, queue_pop,
     "_ZN5dlion3sim10EventQueue3popEv",
     dlion::sim::EventQueue* self) {
  Scope s(b_queue_pop);
  return real_queue_pop(self);
}

WRAP(void, network_send, "_ZN5dlion3sim7Network4sendEmmmSt8functionIFvvEEm",
     dlion::sim::Network* self, std::size_t from, std::size_t to,
     dlion::common::Bytes bytes, std::function<void()> on_delivered,
     std::uint64_t flow) {
  Scope s(b_network_send);
  real_network_send(self, from, to, bytes, std::move(on_delivered), flow);
}

WRAP(void, engine_run, "_ZN5dlion3sim6Engine3runEv",
     dlion::sim::Engine* self) {
  Scope s(b_engine_run);
  real_engine_run(self);
}

WRAP(void, engine_run_until, "_ZN5dlion3sim6Engine9run_untilEd",
     dlion::sim::Engine* self, dlion::common::SimTime t_end) {
  Scope s(b_engine_run_until);
  real_engine_run_until(self, t_end);
}

// ------------------------------------------------------------------- obs

using dlion::obs::Tracer;

WRAP(void, tracer_begin,
     "_ZN5dlion3obs6Tracer5beginEjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdSt6vectorINS1_3ArgESaIS9_EE",
     Tracer* self, dlion::obs::TrackId track, std::string name, double t,
     std::vector<Tracer::Arg> args) {
  Scope s(b_tracer_begin);
  real_tracer_begin(self, track, std::move(name), t, std::move(args));
}

WRAP(void, tracer_end, "_ZN5dlion3obs6Tracer3endEjd",
     Tracer* self, dlion::obs::TrackId track, double t) {
  Scope s(b_tracer_end);
  real_tracer_end(self, track, t);
}

WRAP(void, tracer_complete,
     "_ZN5dlion3obs6Tracer8completeEjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEddSt6vectorINS1_3ArgESaIS9_EE",
     Tracer* self, dlion::obs::TrackId track, std::string name, double t0,
     double t1, std::vector<Tracer::Arg> args) {
  Scope s(b_tracer_complete);
  real_tracer_complete(self, track, std::move(name), t0, t1, std::move(args));
}

WRAP(void, tracer_instant,
     "_ZN5dlion3obs6Tracer7instantEjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdSt6vectorINS1_3ArgESaIS9_EE",
     Tracer* self, dlion::obs::TrackId track, std::string name, double t,
     std::vector<Tracer::Arg> args) {
  Scope s(b_tracer_instant);
  real_tracer_instant(self, track, std::move(name), t, std::move(args));
}

WRAP(void, tracer_counter,
     "_ZN5dlion3obs6Tracer7counterEjNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdd",
     Tracer* self, dlion::obs::TrackId track, std::string name, double t,
     double value) {
  Scope s(b_tracer_counter);
  real_tracer_counter(self, track, std::move(name), t, value);
}

WRAP(void, tracer_flow,
     "_ZN5dlion3obs6Tracer4flowEjNS1_9FlowPhaseENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdm",
     Tracer* self, dlion::obs::TrackId track, Tracer::FlowPhase phase,
     std::string name, double t, std::uint64_t id) {
  Scope s(b_tracer_flow);
  real_tracer_flow(self, track, phase, std::move(name), t, id);
}

WRAP(void, histogram_observe, "_ZN5dlion3obs9Histogram7observeEd",
     dlion::obs::Histogram* self, double v) {
  Scope s(b_histogram_observe);
  real_histogram_observe(self, v);
}

// ------------------------------------------------------------------ data

WRAP(dlion::data::Batch, sampler_next,
     "_ZN5dlion4data16MinibatchSampler4nextEm",
     dlion::data::MinibatchSampler* self, std::size_t batch_size) {
  Scope s(b_sampler_next);
  return real_sampler_next(self, batch_size);
}

// ------------------------------------------- interface for dlion_bench.cpp

namespace dlion::bench::e2e {

bool trace_start() {
  for (Boundary* b = g_boundaries; b != nullptr; b = b->next) {
    b->calls = b->incl_ns = b->self_ns = b->kept = 0;
    b->work = 0.0;
  }
  g_census.clear();
  t_stack.clear();
  t_stack.reserve(64);
  g_foreign.store(0, std::memory_order_relaxed);
  t_recording = true;
  g_started.store(true, std::memory_order_relaxed);
  return true;
}

std::vector<BoundaryStats> trace_boundaries() {
  std::vector<BoundaryStats> out;
  for (const Boundary* b = g_boundaries; b != nullptr; b = b->next) {
    out.push_back({b->name, b->group, b->calls, b->incl_ns, b->self_ns,
                   b->work, b->kept});
  }
  return {out.rbegin(), out.rend()};  // declaration order
}

std::vector<GemmShape> trace_gemm_shapes() {
  std::vector<GemmShape> out;
  for (const auto& [key, shape] : g_census) {
    GemmShape row = shape;
    std::tie(row.trans_a, row.trans_b, row.m, row.n, row.k) = key;
    out.push_back(row);
  }
  return out;
}

std::uint64_t trace_foreign_calls() {
  return g_foreign.load(std::memory_order_relaxed);
}

}  // namespace dlion::bench::e2e
