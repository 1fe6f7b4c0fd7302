// Simulated network connecting n workers.
//
// Replaces the paper's LAN/WAN fabric and its `tc`-based shaping. Bandwidth
// is modelled two ways, matching the paper's two emulation styles:
//  - per-worker egress shaping (Table 3's per-worker Mbps values), and
//  - an explicit per-directed-link matrix (Table 2's Amazon region matrix).
//
// Transfers to different peers proceed in parallel (as parallel TCP streams
// do under tc shaping); transfers to the same peer queue FIFO on that link.
// A worker fanning out to its n-1 peers shares its shaped egress fairly, so
// the effective rate of link i->j is
//   min(egress_i(t) / (n-1), link_matrix[i][j](t)).
// A system that floods all peers with full gradients therefore saturates
// its uplink - the congestion behaviour the paper's techniques react to.
// Transfer duration is computed from the rate at transmission start;
// latency is added after transmission and does not occupy the link.
//
// Per-message host cost: a warmed network allocates nothing per transfer.
// Each link's FIFO is a ring that allocates on the link's first send and
// doubles when full; the transfer on the wire stays at the ring's front
// until its tx-end event, which captures only {network, link} (16 bytes,
// trivially copyable, so std::function stores it inline). A callback passed
// to send() that fits the same rule (see sim::is_inline_callback_v) makes
// the whole send -> deliver path allocation-free.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/obs.h"
#include "sim/engine.h"
#include "sim/fault_injector.h"
#include "sim/resource_schedule.h"

namespace dlion::sim {

struct NetworkStats {
  common::Bytes bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  /// Messages/bytes dropped by injected faults (crashes, blackouts, loss),
  /// attributed to the sender. Dropped transfers never deliver.
  std::uint64_t messages_dropped = 0;
  common::Bytes bytes_dropped = 0;
};

class Network {
 public:
  Network(Engine& engine, std::size_t n_workers);
  // Scheduled tx-end events hold the network's address.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::size_t size() const { return n_; }
  Engine& engine() { return *engine_; }

  /// Per-worker egress shaping (Mbps). Default: unshaped (1 Gbps LAN).
  void set_egress(std::size_t worker, Schedule mbps);
  /// Explicit directed-link bandwidth (Mbps); overrides the default.
  void set_link(std::size_t from, std::size_t to, Schedule mbps);
  /// One-way propagation latency for a directed link (seconds).
  void set_latency(std::size_t from, std::size_t to, double seconds);
  /// Set every link's latency.
  void set_all_latency(double seconds);

  /// Effective rate of i->j right now, Mbps: the fair egress share capped
  /// by the link matrix (what the paper's network resource monitor reports
  /// to the partial gradient generation module).
  double available_mbps(std::size_t from, std::size_t to) const;

  /// Current egress shaping of a worker (Mbps) and raw link rate.
  double egress_mbps(std::size_t from) const;
  double link_mbps(std::size_t from, std::size_t to) const;

  /// Attach a fault injector (non-owning; may be nullptr to detach). When
  /// set, sends on unusable links and loss-draw casualties are dropped:
  /// their `on_delivered` is never invoked and the drop is counted in the
  /// sender's NetworkStats. Messages already in flight when a fault window
  /// opens are dropped at transmission end.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }
  const FaultInjector* fault_injector() const { return faults_; }

  /// Receives the `on_delivered` of every dropped transfer, never invoked,
  /// at the point where the network lets go of it: inside send() for a
  /// drop at enqueue, and in the tx-end event, after the link's next
  /// transfer has started, for an in-flight drop. The owner of the
  /// callback's state frees it there (comm::Fabric releases the transfer's
  /// slot). Without a hook a dropped callback is simply destroyed.
  using DropHook = std::function<void(std::function<void()> on_delivered)>;
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Enqueue a message of `bytes` on the i->j link; `on_delivered` runs at
  /// the receiver when the transfer (plus latency) completes. `flow` is an
  /// optional causal-flow id (comm::make_flow_id): when non-zero and an
  /// enabled observer is attached, the transmission's tx span is linked
  /// into the flow with a Chrome flow step so viewers draw send → transfer
  /// → deliver arrows. Purely observational — 0 and non-zero flows follow
  /// identical delivery paths. Nothing is allocated per call once the link
  /// has queued before, provided `on_delivered` is an inline callback
  /// (is_inline_callback_v); a dropped one goes to the drop hook.
  void send(std::size_t from, std::size_t to, common::Bytes bytes,
            std::function<void()> on_delivered, std::uint64_t flow = 0);

  const NetworkStats& stats(std::size_t from) const { return stats_[from]; }
  NetworkStats total_stats() const;

  /// Attach an observer (non-owning; nullptr detaches). The NetworkStats
  /// counters are mirrored into the registry (`sim.net.*{worker=i}`),
  /// transfer durations feed the `sim.net.tx_seconds` histogram, and each
  /// link transmission becomes a span on a "network / link i->j" track
  /// (fault drops become instants). Recording is passive: it never changes
  /// rates, ordering, or delivery.
  void set_obs(obs::Observability* o);

 private:
  struct Pending {
    common::Bytes bytes = 0;
    double latency = 0.0;    ///< fixed when the transmission starts
    std::uint64_t flow = 0;  ///< causal-flow id (0 = unlinked)
    std::function<void()> on_delivered;
  };

  /// One directed link's FIFO. The front entry is the transfer on the wire,
  /// so the link is busy iff its queue is non-empty. Storage is a ring of
  /// power-of-two size, allocated on first use and doubled when full.
  class LinkQueue {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    Pending& front() { return ring_[head_]; }
    void push_back(Pending p);
    Pending pop_front();

   private:
    std::vector<Pending> ring_;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
  };

  /// The tx-end event of link from->to (see the file comment).
  struct TxEnd {
    Network* net;
    std::uint32_t from;
    std::uint32_t to;
    void operator()() const { net->end_tx(from, to); }
  };

  /// Cached per-worker registry handles (resolved once in set_obs).
  struct ObsHandles {
    obs::Counter* messages_sent = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* messages_dropped = nullptr;
    obs::Counter* bytes_dropped = nullptr;
  };

  /// Start transmitting the front of link from->to's queue.
  void start_next(std::size_t from, std::size_t to);
  /// Tx-end event: hand the front transfer to delivery (or drop it), then
  /// start the next one.
  void end_tx(std::size_t from, std::size_t to);
  /// Give a dropped transfer's callback to the drop hook.
  void release_dropped(std::function<void()> on_delivered);
  /// Lazily created "network / link i->j" tracer track.
  obs::TrackId link_track(std::size_t from, std::size_t to);
  void record_drop(std::size_t from, std::size_t to, common::Bytes bytes,
                   const char* reason);

  Engine* engine_;
  std::size_t n_;
  std::vector<Schedule> egress_;
  std::vector<std::vector<Schedule>> link_;     // [from][to]
  std::vector<std::vector<double>> latency_;    // [from][to]
  std::vector<std::vector<LinkQueue>> queue_;   // [from][to]
  std::vector<NetworkStats> stats_;
  FaultInjector* faults_ = nullptr;             // non-owning, optional
  DropHook drop_hook_;

  obs::Observability* obs_ = nullptr;           // non-owning, optional
  std::vector<ObsHandles> obs_handles_;         // per worker
  obs::Histogram* obs_tx_seconds_ = nullptr;
  std::vector<std::vector<obs::TrackId>> obs_link_tracks_;  // lazy, 0=unset
};

}  // namespace dlion::sim
