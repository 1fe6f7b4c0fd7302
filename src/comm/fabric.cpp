#include "comm/fabric.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/track_names.h"
#include "obs/watchdog.h"

namespace dlion::comm {

Fabric::Fabric(sim::Network& network, double byte_scale)
    : network_(&network),
      byte_scale_(byte_scale),
      handlers_(network.size()),
      dead_letters_to_(network.size(), 0),
      flow_seq_(network.size(), 0),
      delivered_seqs_(network.size()) {
  if (byte_scale <= 0.0) {
    throw std::invalid_argument("Fabric: byte_scale must be positive");
  }
  static_assert(sim::is_inline_callback_v<Delivery>);
  network_->set_drop_hook([](std::function<void()> dropped) {
    if (const Delivery* d = dropped.target<Delivery>()) {
      d->fabric->take(d->slot);  // releases the message with the slot
    }
  });
}

Fabric::~Fabric() { network_->set_drop_hook(nullptr); }

void Fabric::set_obs(obs::Observability* o) {
  obs_ = o;
  obs_types_.clear();
  obs_dead_letters_ = obs_retries_ = obs_failures_ = nullptr;
  obs_track_ = 0;
  obs_worker_tracks_.clear();
  if (o == nullptr) return;
  obs::MetricsRegistry& m = o->metrics();
  obs_types_.resize(std::variant_size_v<Message>);
  for (std::size_t i = 0; i < obs_types_.size(); ++i) {
    const obs::Labels labels{{"type", message_type_name(i)}};
    obs_types_[i].sent = &m.counter("comm.fabric.sent", labels);
    obs_types_[i].sent_bytes = &m.counter("comm.fabric.sent_bytes", labels);
  }
  obs_dead_letters_ = &m.counter("comm.fabric.dead_letters");
  obs_retries_ = &m.counter("comm.fabric.reliable_retries");
  obs_failures_ = &m.counter("comm.fabric.reliable_failures");
  obs_track_ = o->tracer().track("fabric", "control");
  // Flow endpoints live on the same "workers / worker i" lanes the workers
  // record their compute/stall spans on (find-or-create dedupes with
  // core::Worker::set_obs regardless of attach order).
  obs_worker_tracks_.resize(size());
  for (std::size_t w = 0; w < size(); ++w) {
    obs_worker_tracks_[w] = o->tracer().track("workers", obs::worker_track(w));
  }
}

void Fabric::attach(std::size_t worker, Handler handler) {
  handlers_.at(worker) = std::move(handler);
}

void Fabric::detach(std::size_t worker) { handlers_.at(worker) = nullptr; }

bool Fabric::attached(std::size_t worker) const {
  return static_cast<bool>(handlers_.at(worker));
}

common::Bytes Fabric::charged_bytes(const Message& msg) const {
  const common::Bytes raw = wire_bytes(msg);
  if (is_control(msg)) return raw;  // control queue: no scaling
  return static_cast<common::Bytes>(
      std::llround(static_cast<double>(raw) * byte_scale_));
}

common::Bytes Fabric::charged_bytes(const GradientUpdate& update) const {
  // Gradient updates are data messages (never control), so the scaling
  // always applies; same arithmetic as the Message overload.
  return static_cast<common::Bytes>(
      std::llround(static_cast<double>(wire_bytes(update)) * byte_scale_));
}

bool Fabric::deliver(std::size_t from, std::size_t to, const MessagePtr& msg,
                     FlowId flow) {
  DLION_AFFINITY_DCHECK(affinity_);
  DLION_DCHECK(to < handlers_.size(), "delivery to out-of-range worker");
  DLION_DCHECK(msg != nullptr);
  if (!handlers_[to]) {
    // Receiver is detached (crashed): dead-letter. The causal flow ends
    // nowhere — viewers show the arrow stopping at the link's tx span,
    // which is exactly what happened.
    ++dead_letters_;
    ++dead_letters_to_[to];
    if (obs::on(obs_)) {
      obs_dead_letters_->inc();
      obs_->tracer().instant(obs_track_, "dead_letter",
                             engine().now(),
                             {{"to", static_cast<double>(to)},
                              {"type", static_cast<double>(msg->index())}});
      if (obs::Watchdog* wd = obs_->watchdog()) {
        wd->on_dead_letter(engine().now());
      }
    }
    return false;
  }
  if (obs::on(obs_) && flow != 0) {
    // Flow end on the receiver's lane, at delivery time, just before the
    // handler runs — the handler's same-timestamp "apply" span (or the
    // next span on the lane) is the arrow's destination.
    obs_->tracer().flow(obs_worker_tracks_[to], obs::Tracer::FlowPhase::kEnd,
                        message_type_name(*msg), engine().now(), flow);
  }
  handlers_[to](from, msg);
  return true;
}

void Fabric::transmit(std::size_t from, std::size_t to, MessagePtr msg,
                      common::Bytes bytes, Kind kind, std::uint64_t seq) {
  DLION_AFFINITY_DCHECK(affinity_);
  // Flow ids advance unconditionally: the stamp exists whether or not an
  // observer is attached, so attaching one cannot shift any id (and the id
  // itself never influences delivery — see Network::send).
  DLION_DCHECK(from < flow_seq_.size(), "transmit from out-of-range worker");
  const FlowId flow = make_flow_id(from, ++flow_seq_[from]);
  // Flow-id monotonicity contract: the per-sender sequence is strictly
  // increasing and must stay inside its 40-bit field — a wrap would reuse
  // ids and silently cross-link unrelated causal flows in the trace.
  DLION_ASSERT(flow_seq_[from] < (std::uint64_t{1} << obs::kFlowSeqBits),
               "per-sender flow sequence overflowed 2^40 transmissions");
  DLION_DCHECK(flow_src_worker(flow) == from && flow != 0,
               "flow id round-trip lost the sender");
  if (obs::on(obs_)) {
    ObsTypeHandles& h = obs_types_[msg->index()];
    h.sent->inc();
    h.sent_bytes->inc(static_cast<double>(bytes));
    // Flow start on the sender's lane at transmit time; the enclosing
    // slice (compute/apply) becomes the arrow's origin.
    obs_->tracer().flow(obs_worker_tracks_[from],
                        obs::Tracer::FlowPhase::kStart,
                        message_type_name(*msg), engine().now(), flow);
  }
  std::uint32_t slot;
  if (free_transfers_.empty()) {
    DLION_ASSERT(transfers_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "transfer slab exhausted");
    slot = static_cast<std::uint32_t>(transfers_.size());
    transfers_.emplace_back();
  } else {
    slot = free_transfers_.back();
    free_transfers_.pop_back();
  }
  transfers_[slot] = Transfer{from, to, std::move(msg), flow, seq, kind};
  network_->send(from, to, bytes, Delivery{this, slot}, flow);
}

Fabric::Transfer Fabric::take(std::uint32_t slot) {
  DLION_DCHECK(slot < transfers_.size() && transfers_[slot].msg != nullptr,
               "transfer slot is not in use");
  Transfer t = std::move(transfers_[slot]);
  free_transfers_.push_back(slot);
  return t;
}

void Fabric::complete(std::uint32_t slot) {
  // Moved out first: the handlers below may transmit, reusing the slot or
  // growing the slab.
  const Transfer t = take(slot);
  switch (t.kind) {
    case Kind::kPlain:
      deliver(t.from, t.to, t.msg, t.flow);
      break;
    case Kind::kReliable:
      if (delivered_seqs_[t.to].contains(t.seq)) {
        // Duplicate attempt (our earlier ack was lost): suppress the
        // re-delivery but re-acknowledge so the sender stops retrying.
        send_ack(t.to, t.from, t.seq);
        break;
      }
      if (deliver(t.from, t.to, t.msg, t.flow)) {
        delivered_seqs_[t.to].insert(t.seq);
        send_ack(t.to, t.from, t.seq);
      }
      // A detached receiver sends no ack: the sender keeps retrying and
      // succeeds iff the worker reattaches within its retry budget.
      break;
    case Kind::kAck:
      if (obs::on(obs_)) {
        obs_->tracer().flow(obs_worker_tracks_[t.to],
                            obs::Tracer::FlowPhase::kEnd, "Ack",
                            engine().now(), t.flow);
      }
      on_ack(t.seq);
      break;
  }
}

void Fabric::send(std::size_t from, std::size_t to, Message msg) {
  auto ptr = make_message(std::move(msg));
  const common::Bytes bytes = charged_bytes(*ptr);
  transmit(from, to, std::move(ptr), bytes, Kind::kPlain, 0);
}

void Fabric::broadcast(std::size_t from, const Message& msg) {
  // Encode-size once, share one immutable message across all n-1 sends.
  auto ptr = make_message(msg);
  const common::Bytes bytes = charged_bytes(*ptr);
  for (std::size_t to = 0; to < size(); ++to) {
    if (to != from) transmit(from, to, ptr, bytes, Kind::kPlain, 0);
  }
}

// Kept for the end-to-end benchmark's link; see fabric.h.
void Fabric::broadcast(std::size_t from, const Message& msg,
                       const std::vector<bool>& targets) {
  DLION_ASSERT(targets.size() == size(),
               "Fabric::broadcast: target mask size != worker count");
  auto ptr = make_message(msg);
  const common::Bytes bytes = charged_bytes(*ptr);
  for (std::size_t to = 0; to < size(); ++to) {
    if (to != from && targets[to]) transmit(from, to, ptr, bytes, Kind::kPlain, 0);
  }
}

void Fabric::send_ack(std::size_t from, std::size_t to, std::uint64_t seq) {
  auto ptr = make_message(Ack{static_cast<std::uint32_t>(from), seq});
  const common::Bytes bytes = charged_bytes(*ptr);
  transmit(from, to, std::move(ptr), bytes, Kind::kAck, seq);
}

std::uint64_t Fabric::send_reliable(std::size_t from, std::size_t to,
                                    Message msg, const RetryPolicy& policy,
                                    ReliableCallback done) {
  if (policy.max_attempts == 0 || policy.timeout_s <= 0.0 ||
      policy.backoff < 1.0) {
    throw std::invalid_argument("Fabric::send_reliable: bad RetryPolicy");
  }
  const std::uint64_t seq = next_seq_++;
  PendingReliable pending;
  pending.from = from;
  pending.to = to;
  pending.msg = make_message(std::move(msg));
  pending.bytes = charged_bytes(*pending.msg);
  pending.policy = policy;
  pending.done = std::move(done);
  pending_.emplace(seq, std::move(pending));
  start_attempt(seq);
  return seq;
}

void Fabric::start_attempt(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  PendingReliable& p = it->second;
  const double timeout =
      p.policy.timeout_s *
      std::pow(p.policy.backoff, static_cast<double>(p.attempt));
  ++p.attempt;
  transmit(p.from, p.to, p.msg, p.bytes, Kind::kReliable, seq);
  const auto retry = [this, seq] { on_timeout(seq); };
  static_assert(sim::is_inline_callback_v<decltype(retry)>);
  p.timer = engine().after(timeout, retry);
}

void Fabric::on_timeout(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked in the meantime
  PendingReliable& p = it->second;
  if (p.attempt >= p.policy.max_attempts) {
    ++reliable_failures_;
    ++dead_letters_;
    ++dead_letters_to_[p.to];
    if (obs::on(obs_)) {
      obs_failures_->inc();
      obs_dead_letters_->inc();
      obs_->tracer().instant(obs_track_, "reliable_failure", engine().now(),
                             {{"to", static_cast<double>(p.to)},
                              {"seq", static_cast<double>(seq)}});
      if (obs::Watchdog* wd = obs_->watchdog()) {
        wd->on_dead_letter(engine().now());
      }
    }
    ReliableCallback done = std::move(p.done);
    pending_.erase(it);
    if (done) done(false);
    return;
  }
  ++reliable_retries_;
  if (obs::on(obs_)) {
    obs_retries_->inc();
    obs_->tracer().instant(obs_track_, "reliable_retry", engine().now(),
                           {{"to", static_cast<double>(p.to)},
                            {"seq", static_cast<double>(seq)}});
  }
  start_attempt(seq);
}

void Fabric::on_ack(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // duplicate ack
  engine().cancel(it->second.timer);
  ReliableCallback done = std::move(it->second.done);
  pending_.erase(it);
  if (done) done(true);
}

}  // namespace dlion::comm
