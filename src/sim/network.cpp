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
      queue_(n_workers, std::vector<std::deque<Pending>>(n_workers)),
      busy_(n_workers, std::vector<bool>(n_workers, false)),
      stats_(n_workers) {}

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
      return;  // on_delivered is never invoked for dropped transfers
    }
  }
  queue_[from][to].push_back(Pending{bytes, std::move(on_delivered), flow});
  if (!busy_[from][to]) start_next(from, to);
}

void Network::start_next(std::size_t from, std::size_t to) {
  DLION_DCHECK(from < n_ && to < n_ && from != to,
               "link endpoints out of range");
  auto& q = queue_[from][to];
  if (q.empty()) {
    busy_[from][to] = false;
    return;
  }
  busy_[from][to] = true;
  Pending msg = std::move(q.front());
  q.pop_front();
  const double mbps = available_mbps(from, to);
  const double tx = common::transfer_seconds(msg.bytes, mbps);
  DLION_DCHECK(tx >= 0.0 && std::isfinite(tx),
               "non-finite transmission time");
  const double latency = latency_[from][to];
  stats_[from].bytes_sent += msg.bytes;
  stats_[from].messages_sent += 1;
  const common::Bytes bytes = msg.bytes;
  if (obs::on(obs_)) {
    // The transfer's duration is fixed at transmission start (rates are
    // sampled once), so the span can be recorded up front.
    obs_handles_[from].messages_sent->inc();
    obs_handles_[from].bytes_sent->inc(static_cast<double>(bytes));
    obs_tx_seconds_->observe(tx);
    const obs::TrackId track = link_track(from, to);
    obs_->tracer().complete(track, "tx", engine_->now(), engine_->now() + tx,
                            {{"bytes", static_cast<double>(bytes)},
                             {"mbps", mbps}});
    if (msg.flow != 0 && obs_->causal()) {
      // Flow step at the tx span's start: links the sender's flow start to
      // this link transmission (and from here to the delivery point).
      obs_->tracer().flow(track, obs::Tracer::FlowPhase::kStep, "flow",
                          engine_->now(), msg.flow);
    }
  }
  // Deliver after transmission + propagation; free the link after
  // transmission only.
  engine_->after(tx, [this, from, to, bytes, latency,
                      deliver = std::move(msg.on_delivered)]() mutable {
    // Messages in flight when a crash window or blackout opens are lost at
    // transmission end (the wire went dark mid-transfer). The loss draw is
    // not repeated here: probabilistic loss applies once, at enqueue.
    if (faults_ != nullptr && !faults_->link_usable(from, to, engine_->now())) {
      record_drop(from, to, bytes, "drop_in_flight");
    } else {
      engine_->after(latency, std::move(deliver));
    }
    start_next(from, to);
  });
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
