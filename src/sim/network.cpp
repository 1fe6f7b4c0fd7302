#include "sim/network.h"

#include <cmath>

#include "common/check.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/track_names.h"
#include "obs/watchdog.h"

namespace dlion::sim {

namespace {
constexpr double kDefaultLanMbps = 1000.0;  // paper: 1 Gbps cluster links
constexpr double kDefaultLatency = 0.0002;  // 0.2 ms LAN RTT/2
}  // namespace

Network::Network(Engine& engine, std::size_t n_workers)
    : engine_(&engine),
      n_(n_workers),
      active_(n_workers),
      egress_(n_workers, Schedule(kDefaultLanMbps)),
      link_(n_workers, std::vector<Schedule>(n_workers,
                                             Schedule(kDefaultLanMbps))),
      latency_(n_workers, std::vector<double>(n_workers, kDefaultLatency)),
      queue_(n_workers, std::vector<LinkQueue>(n_workers)),
      stats_(n_workers) {}

void Network::LinkQueue::push_back(Pending p) {
  if (count_ == ring_.size()) {
    std::vector<Pending> grown(ring_.empty() ? 2 : 2 * ring_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(p);
  ++count_;
}

Network::Pending Network::LinkQueue::pop_front() {
  DLION_DCHECK(count_ > 0, "pop_front() on an empty link queue");
  Pending p = std::move(ring_[head_]);
  head_ = static_cast<std::uint32_t>((head_ + 1) & (ring_.size() - 1));
  --count_;
  return p;
}

void Network::set_egress(std::size_t worker, Schedule mbps) {
  egress_.at(worker) = std::move(mbps);
}

void Network::set_link(std::size_t from, std::size_t to, Schedule mbps) {
  link_.at(from).at(to) = std::move(mbps);
}

void Network::set_latency(std::size_t from, std::size_t to, double seconds) {
  latency_.at(from).at(to) = seconds;
}

void Network::set_all_latency(double seconds) {
  for (auto& row : latency_) {
    std::fill(row.begin(), row.end(), seconds);
  }
}

void Network::set_obs(obs::Observability* o) {
  obs_ = o;
  obs_handles_.clear();
  obs_link_tracks_.clear();
  obs_tx_seconds_ = nullptr;
  if (o == nullptr) return;
  obs_handles_.resize(n_);
  obs_link_tracks_.assign(n_, std::vector<obs::TrackId>(n_, 0));
  obs::MetricsRegistry& m = o->metrics();
  for (std::size_t w = 0; w < n_; ++w) {
    const obs::Labels labels{{"worker", obs::id_str(w)}};
    obs_handles_[w].messages_sent = &m.counter("sim.net.messages_sent", labels);
    obs_handles_[w].bytes_sent = &m.counter("sim.net.bytes_sent", labels);
    obs_handles_[w].messages_dropped =
        &m.counter("sim.net.messages_dropped", labels);
    obs_handles_[w].bytes_dropped = &m.counter("sim.net.bytes_dropped", labels);
  }
  obs_tx_seconds_ = &m.histogram("sim.net.tx_seconds", {},
                                 obs::Histogram::default_time_bounds());
}

obs::TrackId Network::link_track(std::size_t from, std::size_t to) {
  obs::TrackId& id = obs_link_tracks_[from][to];
  if (id == 0) {
    id = obs_->tracer().track("network", obs::link_track(from, to));
  }
  return id;
}

void Network::record_drop(std::size_t from, std::size_t to,
                          common::Bytes bytes, const char* reason) {
  stats_[from].messages_dropped += 1;
  stats_[from].bytes_dropped += bytes;
  if (obs::on(obs_)) {
    obs_handles_[from].messages_dropped->inc();
    obs_handles_[from].bytes_dropped->inc(static_cast<double>(bytes));
    obs_->tracer().instant(link_track(from, to), reason, engine_->now(),
                           {{"bytes", static_cast<double>(bytes)}});
    if (obs::Watchdog* wd = obs_->watchdog()) wd->on_drop(engine_->now());
  }
}

void Network::set_active_workers(std::size_t active) {
  if (active == 0 || active > n_) {
    throw std::out_of_range("Network::set_active_workers");
  }
  active_ = active;
}

double Network::available_mbps(std::size_t from, std::size_t to) const {
  const common::SimTime t = engine_->now();
  // Fair share across the sender's *active* peers: with 4 live workers in a
  // 64-slot elastic cluster a sender splits its uplink 3 ways, not 63.
  const double peers = static_cast<double>(active_ > 1 ? active_ - 1 : 1);
  return std::min(egress_.at(from).at(t) / peers,
                  link_.at(from).at(to).at(t));
}

double Network::egress_mbps(std::size_t from) const {
  return egress_.at(from).at(engine_->now());
}

double Network::link_mbps(std::size_t from, std::size_t to) const {
  return link_.at(from).at(to).at(engine_->now());
}

void Network::send(std::size_t from, std::size_t to, common::Bytes bytes,
                   std::function<void()> on_delivered, std::uint64_t flow) {
  if (from >= n_ || to >= n_) throw std::out_of_range("Network::send");
  if (from == to) {
    // Local delivery is immediate (intra-worker queues are in-memory);
    // a crashed worker cannot enqueue to itself.
    if (faults_ != nullptr && faults_->worker_down(from, engine_->now())) {
      record_drop(from, to, bytes, "drop_crashed");
      release_dropped(std::move(on_delivered));
      return;
    }
    engine_->after(0.0, std::move(on_delivered));
    return;
  }
  // Fault injection at enqueue time: a crashed endpoint, a blacked-out
  // link, or a loss draw drops the message before it consumes bandwidth.
  if (faults_ != nullptr) {
    const common::SimTime t = engine_->now();
    if (!faults_->link_usable(from, to, t) ||
        faults_->should_drop(from, to, t)) {
      record_drop(from, to, bytes, "drop_fault");
      release_dropped(std::move(on_delivered));  // never invoked
      return;
    }
  }
  LinkQueue& q = queue_[from][to];
  q.push_back(Pending{bytes, 0.0, flow, std::move(on_delivered)});
  if (q.size() == 1) start_next(from, to);  // the link was idle
}

void Network::release_dropped(std::function<void()> on_delivered) {
  if (drop_hook_) drop_hook_(std::move(on_delivered));
}

void Network::start_next(std::size_t from, std::size_t to) {
  DLION_DCHECK(from < n_ && to < n_ && from != to,
               "link endpoints out of range");
  Pending& msg = queue_[from][to].front();
  const double mbps = available_mbps(from, to);
  const double tx = common::transfer_seconds(msg.bytes, mbps);
  DLION_DCHECK(tx >= 0.0 && std::isfinite(tx),
               "non-finite transmission time");
  msg.latency = latency_[from][to];
  stats_[from].bytes_sent += msg.bytes;
  stats_[from].messages_sent += 1;
  const common::Bytes bytes = msg.bytes;
  if (obs::on(obs_)) {
    // The transfer's duration is fixed at transmission start (rates are
    // sampled once), so the span can be recorded up front. Its args reuse
    // the buffer of a streamed span the tracer did not keep.
    obs_handles_[from].messages_sent->inc();
    obs_handles_[from].bytes_sent->inc(static_cast<double>(bytes));
    obs_tx_seconds_->observe(tx);
    const obs::TrackId track = link_track(from, to);
    obs::Tracer& tracer = obs_->tracer();
    std::vector<obs::Tracer::Arg> args = tracer.recycled_args();
    args.push_back({"bytes", static_cast<double>(bytes)});
    args.push_back({"mbps", mbps});
    tracer.complete(track, "tx", engine_->now(), engine_->now() + tx,
                    std::move(args));
    if (msg.flow != 0 && obs_->causal()) {
      // Flow step at the tx span's start: links the sender's flow start to
      // this link transmission (and from here to the delivery point).
      tracer.flow(track, obs::Tracer::FlowPhase::kStep, "flow",
                  engine_->now(), msg.flow);
    }
  }
  // Deliver after transmission + propagation; free the link after
  // transmission only.
  static_assert(is_inline_callback_v<TxEnd>);
  engine_->after(tx, TxEnd{this, static_cast<std::uint32_t>(from),
                           static_cast<std::uint32_t>(to)});
}

void Network::end_tx(std::size_t from, std::size_t to) {
  LinkQueue& q = queue_[from][to];
  Pending msg = q.pop_front();
  // Messages in flight when a crash window or blackout opens are lost at
  // transmission end (the wire went dark mid-transfer). The loss draw is
  // not repeated here: probabilistic loss applies once, at enqueue.
  const bool dropped =
      faults_ != nullptr && !faults_->link_usable(from, to, engine_->now());
  if (dropped) {
    record_drop(from, to, msg.bytes, "drop_in_flight");
  } else {
    engine_->after(msg.latency, std::move(msg.on_delivered));
  }
  if (!q.empty()) start_next(from, to);
  if (dropped) release_dropped(std::move(msg.on_delivered));
}

NetworkStats Network::total_stats() const {
  NetworkStats total;
  for (const auto& s : stats_) {
    total.bytes_sent += s.bytes_sent;
    total.messages_sent += s.messages_sent;
    total.messages_dropped += s.messages_dropped;
    total.bytes_dropped += s.bytes_dropped;
  }
  return total;
}

}  // namespace dlion::sim
