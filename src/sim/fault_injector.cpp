#include "sim/fault_injector.h"

#include <algorithm>
#include <stdexcept>

namespace dlion::sim {

namespace {

bool in_window(common::SimTime t, common::SimTime start, common::SimTime end) {
  return t >= start && t < end;
}

void check_window(common::SimTime start, common::SimTime end,
                  const char* what) {
  if (!(start >= 0.0) || !(end > start)) {
    throw std::invalid_argument(std::string(what) +
                                ": window must satisfy 0 <= start < end");
  }
}

}  // namespace

FaultSchedule& FaultSchedule::crash(std::size_t worker, common::SimTime start,
                                    common::SimTime end) {
  check_window(start, end, "FaultSchedule::crash");
  crashes.push_back({worker, start, end});
  return *this;
}

FaultSchedule& FaultSchedule::blackout(std::size_t from, std::size_t to,
                                       common::SimTime start,
                                       common::SimTime end) {
  check_window(start, end, "FaultSchedule::blackout");
  if (from == to) {
    throw std::invalid_argument("FaultSchedule::blackout: self link");
  }
  blackouts.push_back({from, to, start, end});
  return *this;
}

FaultSchedule& FaultSchedule::partition(const std::vector<std::size_t>& group_a,
                                        const std::vector<std::size_t>& group_b,
                                        common::SimTime start,
                                        common::SimTime end) {
  check_window(start, end, "FaultSchedule::partition");
  for (std::size_t a : group_a) {   // validate before mutating: a failed
    for (std::size_t b : group_b) {  // builder must leave no partial state
      if (a == b) {
        throw std::invalid_argument(
            "FaultSchedule::partition: groups overlap");
      }
    }
  }
  for (std::size_t a : group_a) {
    for (std::size_t b : group_b) {
      blackouts.push_back({a, b, start, end});
      blackouts.push_back({b, a, start, end});
    }
  }
  return *this;
}

FaultSchedule& FaultSchedule::lossy(std::size_t from, std::size_t to,
                                    double probability, common::SimTime start,
                                    common::SimTime end) {
  check_window(start, end, "FaultSchedule::lossy");
  if (probability < 0.0 || probability > 1.0) {
    throw std::invalid_argument(
        "FaultSchedule::lossy: probability must be in [0, 1]");
  }
  if (from == to) {
    throw std::invalid_argument("FaultSchedule::lossy: self link");
  }
  losses.push_back({from, to, probability, start, end});
  return *this;
}

namespace {
void check_event_time(common::SimTime t, const char* what) {
  if (!(t >= 0.0)) {
    throw std::invalid_argument(std::string(what) + ": time must be >= 0");
  }
}
}  // namespace

MembershipSchedule& MembershipSchedule::join(std::size_t worker,
                                             common::SimTime time) {
  check_event_time(time, "MembershipSchedule::join");
  events.push_back({worker, time, /*join=*/true});
  return *this;
}

MembershipSchedule& MembershipSchedule::leave(std::size_t worker,
                                              common::SimTime time) {
  check_event_time(time, "MembershipSchedule::leave");
  events.push_back({worker, time, /*join=*/false});
  return *this;
}

MembershipSchedule& MembershipSchedule::flash_crowd(std::size_t first,
                                                    std::size_t count,
                                                    common::SimTime start,
                                                    double stagger_s) {
  check_event_time(start, "MembershipSchedule::flash_crowd");
  for (std::size_t k = 0; k < count; ++k) {
    join(first + k, start + static_cast<double>(k) * stagger_s);
  }
  return *this;
}

MembershipSchedule& MembershipSchedule::scale_in(std::size_t first,
                                                 std::size_t count,
                                                 common::SimTime start,
                                                 double stagger_s) {
  check_event_time(start, "MembershipSchedule::scale_in");
  for (std::size_t k = 0; k < count; ++k) {
    leave(first + count - 1 - k, start + static_cast<double>(k) * stagger_s);
  }
  return *this;
}

std::vector<MembershipEvent> MembershipSchedule::sorted_events() const {
  std::vector<MembershipEvent> out = events;
  // Stable: simultaneous events replay in insertion order, so a schedule is
  // a total order and the controller's epoch sequence is reproducible.
  std::stable_sort(out.begin(), out.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

FaultInjector::FaultInjector(FaultSchedule schedule)
    : schedule_(std::move(schedule)), rng_(schedule_.seed) {}

bool FaultInjector::worker_down(std::size_t worker, common::SimTime t) const {
  for (const auto& c : schedule_.crashes) {
    if (c.worker == worker && in_window(t, c.start, c.end)) return true;
  }
  return false;
}

bool FaultInjector::link_blacked_out(std::size_t from, std::size_t to,
                                     common::SimTime t) const {
  for (const auto& b : schedule_.blackouts) {
    if (b.from == from && b.to == to && in_window(t, b.start, b.end)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::link_usable(std::size_t from, std::size_t to,
                                common::SimTime t) const {
  return !worker_down(from, t) && !worker_down(to, t) &&
         !link_blacked_out(from, to, t);
}

double FaultInjector::loss_probability(std::size_t from, std::size_t to,
                                       common::SimTime t) const {
  // Independent rules compose: P(survive) = prod(1 - p_i).
  double survive = 1.0;
  for (const auto& l : schedule_.losses) {
    if (l.from == from && l.to == to && in_window(t, l.start, l.end)) {
      survive *= 1.0 - l.probability;
    }
  }
  return 1.0 - survive;
}

bool FaultInjector::should_drop(std::size_t from, std::size_t to,
                                common::SimTime t) {
  const double p = loss_probability(from, to, t);
  if (p <= 0.0) return false;
  const bool drop = rng_.bernoulli(p);
  if (drop) ++loss_drops_;
  return drop;
}

}  // namespace dlion::sim
