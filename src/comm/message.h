// Message types exchanged between DLion workers.
//
// Mirrors the prototype's Redis usage (§4.2): a *data queue* carries
// gradients and weights, a *control queue* carries small signals (loss
// reports, DKT requests, go-signals). The granularity of gradient exchange
// is the individual weight variable, transmitted as (indices, values) pairs
// exactly like the paper's `send_data`.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "comm/node_pool.h"
#include "comm/payload.h"
#include "common/units.h"

namespace dlion::comm {

/// Partial gradient of one named weight variable. `indices` empty means the
/// values are dense (all `dense_size` entries in order). Both arrays are
/// arena-backed views (comm/payload.h): copying a VariableGrad increfs the
/// backing blocks, it never duplicates gradient bytes.
struct VariableGrad {
  std::uint32_t var_index = 0;
  std::uint32_t dense_size = 0;
  Payload<std::uint32_t> indices;  ///< sorted, empty if dense
  Payload<float> values;

  bool is_dense() const {
    return indices.empty() && values.size() == dense_size;
  }
  std::size_t num_entries() const { return values.size(); }
};

/// A gradient update's variable list. Its buffer comes from the recycling
/// NodePool (comm/node_pool.h), so building one per peer per iteration
/// does not touch the allocator once the pool is warm.
using VarList = std::vector<VariableGrad, PoolAllocator<VariableGrad>>;

/// One worker's gradient contribution for one iteration.
struct GradientUpdate {
  std::uint32_t from = 0;
  std::uint64_t iteration = 0;
  std::uint32_t lbs = 0;  ///< sender's local batch size (for db weights)
  VarList vars;

  std::size_t num_entries() const;
  /// Fraction of the full model's parameters carried by this update.
  double density(std::size_t model_params) const;
};

/// Full model weights (direct knowledge transfer, §3.4). `weights.parts`
/// holds one view per weight variable in model order.
struct WeightSnapshot {
  std::uint32_t from = 0;
  std::uint64_t iteration = 0;
  double loss = 0.0;  ///< sender's smoothed loss when snapshotting
  WeightPayload weights;
};

/// Periodic average-of-last-l losses broadcast (control queue).
struct LossReport {
  std::uint32_t from = 0;
  std::uint64_t iteration = 0;
  double avg_loss = 0.0;
};

/// Request to the current best worker to send its weights.
struct DktRequest {
  std::uint32_t from = 0;
  std::uint64_t iteration = 0;
};

/// Relative-compute-power announcement used by the LBS controller (§3.2).
struct RcpReport {
  std::uint32_t from = 0;
  double rcp = 0.0;  ///< max LBS this worker can process per unit time
};

/// Periodic liveness beacon (control queue). Peers that stop emitting
/// heartbeats become *suspected* after a timeout and are excluded from
/// synchronization wait-sets and update renormalization.
struct Heartbeat {
  std::uint32_t from = 0;
  std::uint64_t iteration = 0;  ///< sender's training progress
};

/// Transport-level acknowledgement for reliable control-plane sends
/// (Fabric::send_reliable). Never surfaced to worker handlers.
struct Ack {
  std::uint32_t from = 0;
  std::uint64_t seq = 0;
};

/// Roster-change announcement (elastic membership, DESIGN.md "Elastic
/// membership"). Carries the new monotone roster epoch and the full member
/// set packed as a little-endian bitmap (bit w of word w/64 = worker w is a
/// member). Receivers adopt the roster iff `epoch` exceeds their current
/// epoch; older announcements are stale by definition and rejected.
struct RosterUpdate {
  std::uint32_t from = 0;
  std::uint64_t epoch = 0;
  std::uint32_t capacity = 0;                ///< cluster capacity (slots)
  std::vector<std::uint64_t> member_words;   ///< ceil(capacity/64) words
};

/// Joiner's request for one disjoint chunk of the model: the weight
/// variables [first_var, first_var + var_count). A joiner splits the model
/// across >= 2 live donors (TensorHub-style sharded bootstrap) and sends
/// one request per donor over the reliable control channel.
struct BootstrapRequest {
  std::uint32_t from = 0;
  std::uint64_t epoch = 0;      ///< joiner's roster epoch
  std::uint32_t first_var = 0;
  std::uint32_t var_count = 0;
};

/// One donor's bootstrap reply: weight values for the requested variable
/// range plus the training-clock state (iteration, GBS controller ticks)
/// the joiner adopts once every chunk has arrived.
struct BootstrapChunk {
  std::uint32_t from = 0;
  std::uint64_t epoch = 0;
  std::uint32_t first_var = 0;
  std::uint64_t iteration = 0;
  std::uint64_t gbs_ticks = 0;  ///< donor's GBS controller tick count
  double loss = 0.0;            ///< donor's smoothed loss (DKT seed)
  WeightPayload weights;        ///< parts for [first_var, first_var+n)
};

/// Versioned weight-snapshot publication. Uses the bootstrap chunking
/// scheme: `weights` holds the variables [first_var, first_var +
/// weights.parts.size()) out of `total_vars`. `version` is a monotone
/// publish sequence number; `iteration` is the training iteration the
/// snapshot was taken at.
///
/// No library code sends this message. It stays in `Message` because the
/// end-to-end benchmark (bench/e2e/layer_wraps.cpp) wraps `Fabric::send`,
/// `broadcast` and `send_reliable` by mangled names that spell out every
/// alternative of `Message`; removing one breaks that link.
struct ModelPublish {
  std::uint32_t from = 0;
  std::uint64_t version = 0;
  std::uint64_t iteration = 0;
  std::uint32_t first_var = 0;
  std::uint32_t total_vars = 0;
  WeightPayload weights;  ///< parts for [first_var, first_var+n)
};

using Message = std::variant<GradientUpdate, WeightSnapshot, LossReport,
                             DktRequest, RcpReport, Heartbeat, Ack,
                             RosterUpdate, BootstrapRequest, BootstrapChunk,
                             ModelPublish>;
using MessagePtr = std::shared_ptr<const Message>;

/// `msg` in one pooled node with its control block (comm/node_pool.h): the
/// way the fabric materializes every message it sends.
template <typename M>
MessagePtr make_message(M&& msg) {
  return std::allocate_shared<const Message>(PoolAllocator<Message>{},
                                             std::forward<M>(msg));
}

/// Pack a member set into the RosterUpdate bitmap words (and back).
std::vector<std::uint64_t> pack_members(const std::vector<bool>& members);
std::vector<bool> unpack_members(const std::vector<std::uint64_t>& words,
                                 std::size_t capacity);

/// Deterministic causal-flow identifier stamped on every fabric
/// transmission (DESIGN.md "Causal tracing"). Derived purely from
/// (src_worker, per-sender transmission sequence) — no randomness, no wall
/// clocks — so the same simulation always produces the same flow ids and an
/// attached tracer can link send → transfer → deliver events across tracks.
///
/// Layout: bits [40, 64) hold src_worker + 1 (so a valid id is never 0),
/// bits [0, 40) the 1-based per-sender sequence number.
using FlowId = std::uint64_t;

inline constexpr int kFlowSeqBits = 40;

constexpr FlowId make_flow_id(std::size_t src_worker, std::uint64_t seq) {
  return (static_cast<FlowId>(src_worker + 1) << kFlowSeqBits) |
         (seq & ((FlowId{1} << kFlowSeqBits) - 1));
}
constexpr std::size_t flow_src_worker(FlowId id) {
  return static_cast<std::size_t>(id >> kFlowSeqBits) - 1;
}
constexpr std::uint64_t flow_seq(FlowId id) {
  return id & ((FlowId{1} << kFlowSeqBits) - 1);
}

/// True for messages that ride the control queue (small, latency-bound).
bool is_control(const Message& msg);

/// Arena bytes a retained copy of `msg` pins (sum of its payload view
/// lengths; 0 for control messages). Feeds the fabric's dead-letter
/// byte-based eviction: a dead-lettered data message keeps its blocks alive
/// until the record is dropped.
std::size_t payload_bytes(const Message& msg);

/// Bytes `msg` costs on a link before the fabric's byte scaling: the
/// little-endian, fixed-width, unpadded size of its fields and payload
/// arrays for data-lane messages, a flat 64 B for control messages.
common::Bytes wire_bytes(const Message& msg);
/// Same for a gradient update, without building a Message around it.
common::Bytes wire_bytes(const GradientUpdate& update);

/// Stable human-readable name of the message's alternative ("GradientUpdate",
/// "Ack", ...) — used as the `type` label on fabric metrics.
const char* message_type_name(const Message& msg);
/// Same, by variant index (0 <= index < std::variant_size_v<Message>).
const char* message_type_name(std::size_t variant_index);

}  // namespace dlion::comm
