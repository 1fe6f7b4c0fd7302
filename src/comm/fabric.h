// The message fabric: typed message delivery between workers over the
// simulated network.
//
// Plays the role of the prototype's Redis deployment. Data-queue messages
// (gradients, weights) are charged to the network at their wire size
// multiplied by `byte_scale` - the ratio between the nominal model size
// (5 MB Cipher / 17 MB MobileNet) and the actually-trained model, so traffic
// volume matches the paper's regardless of bench scale (see DESIGN.md).
// Control-queue messages are small and charged at their fixed size.
//
// Fault-tolerance semantics:
//  - Workers attach/detach dynamically (crash = detach, recover = attach).
//    A message arriving at a detached worker is counted as a *dead letter*
//    and silently discarded - delivery never throws.
//  - `send_reliable` implements an at-most-once-delivered, at-least-once-
//    attempted control-plane channel: each attempt is acknowledged at the
//    transport level (Ack messages, never surfaced to worker handlers),
//    unacked attempts are retried with exponential backoff, duplicates are
//    suppressed at the receiver, and callers learn the final outcome via a
//    callback (used by DKT weight pulls to fall back to the next-best peer).
//
// Per-message host cost: a warmed fabric allocates nothing per message.
// Messages are built in pooled nodes (make_message), each transmission's
// state lives in a fabric-owned slab slot, and the network carries only a
// 16-byte {fabric, slot} callback that std::function stores inline. A slot
// is freed when its transmission is delivered, or — through the network's
// drop hook — at the moment the network drops it, so a dropped message
// releases its payload blocks exactly when it always did.
#pragma once

#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/thread_affinity.h"
#include "comm/message.h"
#include "obs/obs.h"
#include "sim/network.h"

namespace dlion::comm {

/// Retry behaviour of the reliable control-plane channel. Attempt i
/// (0-based) times out after timeout_s * backoff^i.
struct RetryPolicy {
  double timeout_s = 1.0;
  double backoff = 2.0;
  std::size_t max_attempts = 4;
};

class Fabric {
 public:
  using Handler = std::function<void(std::size_t from, MessagePtr msg)>;
  /// Outcome callback for reliable sends: acked = true once the receiver's
  /// ack arrives; false when every attempt timed out.
  using ReliableCallback = std::function<void(bool acked)>;

  /// `byte_scale` multiplies data-queue wire sizes (> 0; 1 = exact). The
  /// fabric installs its drop hook on `network` and clears it again on
  /// destruction, so the network must outlive the fabric.
  Fabric(sim::Network& network, double byte_scale = 1.0);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::size_t size() const { return network_->size(); }

  /// Register worker `w`'s message handler (one per worker).
  void attach(std::size_t worker, Handler handler);
  /// Unregister worker `w` (crash). In-flight messages to it dead-letter.
  void detach(std::size_t worker);
  bool attached(std::size_t worker) const;

  /// Send `msg` from worker `from` to worker `to` (fire-and-forget). The
  /// message moves into a pooled node; a warmed fabric allocates nothing.
  void send(std::size_t from, std::size_t to, Message msg);

  /// Send `msg` to every other worker. The message is materialized and its
  /// wire size computed exactly once; all n-1 sends share one MessagePtr.
  void broadcast(std::size_t from, const Message& msg);

  /// Broadcast restricted to workers flagged in `targets` (self skipped).
  /// An all-true mask reproduces broadcast exactly.
  ///
  /// No library code calls this overload. It stays, defined out of line,
  /// because the end-to-end benchmark (bench/e2e/layer_wraps.cpp) wraps it
  /// by mangled name; removing it breaks that link.
  void broadcast(std::size_t from, const Message& msg,
                 const std::vector<bool>& targets);

  /// Reliable control-plane send (ack + timeout + exponential backoff).
  /// Returns the request's sequence number. `done` (optional) fires exactly
  /// once with the final outcome.
  std::uint64_t send_reliable(std::size_t from, std::size_t to, Message msg,
                              const RetryPolicy& policy = {},
                              ReliableCallback done = {});

  /// Messages that arrived at a worker with no handler attached, or that
  /// exhausted their reliable-send retry budget. The message itself is
  /// released at once.
  std::uint64_t dead_letters() const { return dead_letters_; }
  std::uint64_t dead_letters(std::size_t to) const {
    return dead_letters_to_.at(to);
  }

  /// Reliable-channel retransmissions and failures so far.
  std::uint64_t reliable_retries() const { return reliable_retries_; }
  std::uint64_t reliable_failures() const { return reliable_failures_; }
  /// Reliable requests still awaiting an ack.
  std::size_t reliable_pending() const { return pending_.size(); }
  /// Transmissions handed to the network and neither delivered nor dropped
  /// yet (slab slots in use). 0 once the engine has drained.
  std::size_t in_flight() const {
    return transfers_.size() - free_transfers_.size();
  }

  /// Simulated wire size this fabric charges for a message.
  common::Bytes charged_bytes(const Message& msg) const;
  /// Overload for callers that already hold the concrete update: computes
  /// the same value without constructing a Message variant (which would
  /// deep-copy the whole gradient payload just to measure it).
  common::Bytes charged_bytes(const GradientUpdate& update) const;

  sim::Network& network() { return *network_; }
  double byte_scale() const { return byte_scale_; }

  /// Attach an observer (non-owning; nullptr detaches). Sends are counted
  /// by message type (`comm.fabric.sent{type}`, `.sent_bytes{type}`), the
  /// dead-letter / retry / failure tallies are mirrored into the registry
  /// (existing accessors keep working), and dead letters, retries, and
  /// reliable failures appear as instants on a "fabric / control" track.
  void set_obs(obs::Observability* o);

 private:
  enum class Kind : std::uint8_t { kPlain, kReliable, kAck };

  /// One transmission between transmit() and its delivery or drop.
  struct Transfer {
    std::size_t from = 0;
    std::size_t to = 0;
    MessagePtr msg;
    FlowId flow = 0;
    std::uint64_t seq = 0;  ///< reliable request the attempt or ack is for
    Kind kind = Kind::kPlain;
  };

  /// The callback the network runs on delivery: names a transfers_ slot.
  struct Delivery {
    Fabric* fabric;
    std::uint32_t slot;
    void operator()() const { fabric->complete(slot); }
  };

  /// Cached per-message-type registry handles (index = variant index).
  struct ObsTypeHandles {
    obs::Counter* sent = nullptr;
    obs::Counter* sent_bytes = nullptr;
  };

  struct PendingReliable {
    std::size_t from = 0;
    std::size_t to = 0;
    MessagePtr msg;
    common::Bytes bytes = 0;
    RetryPolicy policy;
    std::size_t attempt = 0;  // attempts already transmitted
    ReliableCallback done;
    sim::EventId timer = 0;
  };

  sim::Engine& engine() { return network_->engine(); }
  /// Hand `msg` to the receiver's handler; dead-letters if detached.
  /// `flow` is the transmission's causal-flow id (flow-end is recorded on
  /// the receiver's track just before the handler runs).
  bool deliver(std::size_t from, std::size_t to, const MessagePtr& msg,
               FlowId flow);
  void transmit(std::size_t from, std::size_t to, MessagePtr msg,
                common::Bytes bytes, Kind kind, std::uint64_t seq);
  /// Delivery of the transfer in `slot` (frees the slot first).
  void complete(std::uint32_t slot);
  /// Move the transfer out of `slot` and free the slot.
  Transfer take(std::uint32_t slot);
  void send_ack(std::size_t from, std::size_t to, std::uint64_t seq);
  void on_ack(std::uint64_t seq);
  void start_attempt(std::uint64_t seq);
  void on_timeout(std::uint64_t seq);

  sim::Network* network_;
  double byte_scale_;
  /// All sends and deliveries run on the simulation thread (no locks on
  /// the message path); checked in debug/sanitize builds.
  common::ThreadAffinity affinity_;
  std::vector<Handler> handlers_;
  std::vector<std::uint64_t> dead_letters_to_;
  std::uint64_t dead_letters_ = 0;
  std::uint64_t next_seq_ = 1;
  /// Per-sender transmission counters feeding make_flow_id. Advance
  /// unconditionally (observer attached or not) so obs-on and obs-off runs
  /// assign identical flow ids — and, since the ids never touch delivery,
  /// stay bit-identical altogether.
  std::vector<std::uint64_t> flow_seq_;
  /// Slab of in-flight transmissions and its free slots (slot indices,
  /// not a payload).
  std::vector<Transfer> transfers_;
  std::vector<std::uint32_t> free_transfers_;  // dlion-lint: allow(dlion-owned-payload)
  std::map<std::uint64_t, PendingReliable> pending_;
  /// Per-receiver reliable seqs already delivered (duplicate suppression).
  std::vector<std::unordered_set<std::uint64_t>> delivered_seqs_;
  std::uint64_t reliable_retries_ = 0;
  std::uint64_t reliable_failures_ = 0;

  obs::Observability* obs_ = nullptr;  // non-owning, optional
  std::vector<ObsTypeHandles> obs_types_;
  obs::Counter* obs_dead_letters_ = nullptr;
  obs::Counter* obs_retries_ = nullptr;
  obs::Counter* obs_failures_ = nullptr;
  obs::TrackId obs_track_ = 0;  // "fabric / control"
  /// Flow endpoints: the per-worker "workers / worker i" tracks (shared
  /// with core::Worker via the tracer's find-or-create semantics).
  std::vector<obs::TrackId> obs_worker_tracks_;
};

}  // namespace dlion::comm
