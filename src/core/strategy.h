// The plugin interface behind the paper's `generate_partial_gradients` API
// (§4.2). Each distributed DL system - DLion itself and the four comparison
// systems of Table 1 - is a PartialGradientStrategy: given the freshly
// computed local gradients and a per-link context, produce the partial
// gradients to ship to that peer.
#pragma once

#include <memory>
#include <vector>

#include "comm/message.h"
#include "nn/model.h"

namespace dlion::core {

/// Everything a strategy may consult when generating a link's partials.
struct LinkContext {
  std::size_t self = 0;      ///< sender worker id
  std::size_t peer = 0;      ///< receiver worker id
  std::uint64_t iteration = 0;
  /// Available bandwidth of the link self->peer right now, Mbps (the
  /// network resource monitor's reading; BW_net_j in §3.3).
  double available_mbps = 0.0;
  /// Sender's current iteration rate, iterations/second (Iter_com_i).
  double iterations_per_sec = 1.0;
  /// Ratio of nominal wire bytes to actual value bytes (cost-model scale;
  /// see comm::Fabric). Strategies translating byte budgets into entry
  /// counts must divide by this.
  double byte_scale = 1.0;
  /// Learning rate and worker count: what a transmitted gradient entry g
  /// does to the receiver's weight is -(eta/n) * db * g, which strategies
  /// judging *update* significance (Gaia) need.
  double learning_rate = 0.0;
  std::size_t n_workers = 1;
  /// Arena the generated payloads should be packed into (one production
  /// write through a PayloadWriter; see comm/payload.h). Null means "no
  /// arena in reach" - strategies then fall back to standalone exact-size
  /// blocks, producing identical entries either way.
  comm::PayloadArena* arena = nullptr;
};

class PartialGradientStrategy {
 public:
  virtual ~PartialGradientStrategy() = default;

  /// Called once per iteration, before any per-link generation, with the
  /// model holding the fresh local gradients. Strategies put cross-link
  /// per-iteration state here: accumulators, partitions, or work every
  /// link shares (LinkPrioritizer computes its magnitudes and floors here
  /// and requires the call before generate()).
  virtual void begin_iteration(const nn::Model& model,
                               std::uint64_t iteration) {
    (void)model;
    (void)iteration;
  }

  /// Produce the partial gradients to send to `ctx.peer` this iteration.
  /// An empty vector means "send a header-only update" (the peer still
  /// learns the sender's iteration for synchronization purposes).
  virtual comm::VarList generate(const nn::Model& model,
                                 const LinkContext& ctx) = 0;

  virtual const char* name() const = 0;

 protected:
  /// Arena to pack generated payloads into: the context's when the caller
  /// provided one (the worker's data-plane arena), else a strategy-owned
  /// fallback so strategies driven directly (tests, benches) still produce
  /// arena-backed views.
  comm::PayloadArena& payload_arena(const LinkContext& ctx) {
    return ctx.arena != nullptr ? *ctx.arena : fallback_arena_;
  }

 private:
  comm::PayloadArena fallback_arena_;
};

using StrategyPtr = std::unique_ptr<PartialGradientStrategy>;

}  // namespace dlion::core
