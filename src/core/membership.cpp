#include "core/membership.h"

#include <algorithm>
#include <stdexcept>

namespace dlion::core {

MembershipController::MembershipController(
    sim::Engine& engine, comm::Fabric& fabric, std::vector<Worker*> workers,
    sim::MembershipSchedule schedule, std::vector<bool> initial,
    common::SimTime duration)
    : engine_(&engine),
      fabric_(&fabric),
      workers_(std::move(workers)),
      schedule_(std::move(schedule)),
      members_(std::move(initial)),
      duration_(duration) {
  if (members_.size() != workers_.size()) {
    throw std::invalid_argument(
        "MembershipController: roster size != worker count");
  }
  if (member_count() == 0) {
    throw std::invalid_argument("MembershipController: empty initial roster");
  }
  fabric_->network().set_active_workers(member_count());
}

std::size_t MembershipController::member_count() const {
  return static_cast<std::size_t>(
      std::count(members_.begin(), members_.end(), true));
}

void MembershipController::start() {
  for (const sim::MembershipEvent& ev : schedule_.sorted_events()) {
    if (ev.join) {
      engine_->at(ev.time, [this, ev] { activate(ev.worker); });
    } else {
      engine_->at(ev.time, [this, ev] { deactivate(ev.worker); });
    }
  }
}

void MembershipController::activate(std::size_t w) {
  if (w >= workers_.size() || members_[w]) return;
  Worker* worker = workers_[w];
  if (!worker->dormant()) return;  // slot busy (should not happen)
  ++epoch_;
  members_[w] = true;
  ++stats_.joins;
  // Re-join of a slot that was a member before: freeze the previous
  // tenure's record now, before Worker::join resets the bootstrap state
  // it is filled from.
  for (auto it = stats_.join_log.rbegin(); it != stats_.join_log.rend();
       ++it) {
    if (it->worker != w) continue;
    it->completed = worker->bootstrap_complete_time();
    it->donors = worker->bootstrap_donor_count();
    it->bootstrap_bytes = worker->bootstrap_bytes();
    break;
  }
  JoinRecord rec;
  rec.worker = w;
  rec.requested = engine_->now();
  stats_.join_log.push_back(rec);
  worker->join(epoch_, members_, duration_);
  // The egress fair-share divisor tracks the live roster: n-1 peers of the
  // *current* membership, not of the slot capacity.
  fabric_->network().set_active_workers(member_count());
}

void MembershipController::deactivate(std::size_t w) {
  if (w >= workers_.size() || !members_[w]) return;
  if (member_count() <= 1) return;  // never drop the last member
  ++epoch_;
  members_[w] = false;
  ++stats_.leaves;
  workers_[w]->leave(epoch_, members_);
  fabric_->network().set_active_workers(member_count());
}

ElasticStats MembershipController::stats() const {
  ElasticStats s = stats_;
  s.epoch = epoch_;
  s.final_members = member_count();
  // Only each slot's *latest* join reads the worker's live bootstrap
  // state; earlier tenures were frozen by the re-activation that replaced
  // them (the worker keeps only its current tenure's counters).
  std::vector<bool> latest_seen(workers_.size(), false);
  for (auto it = s.join_log.rbegin(); it != s.join_log.rend(); ++it) {
    if (latest_seen[it->worker]) continue;
    latest_seen[it->worker] = true;
    const Worker& wk = *workers_[it->worker];
    it->completed = wk.bootstrap_complete_time();
    it->donors = wk.bootstrap_donor_count();
    it->bootstrap_bytes = wk.bootstrap_bytes();
  }
  return s;
}

}  // namespace dlion::core
