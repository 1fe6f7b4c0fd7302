#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dlion::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(0); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, SizeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  q.push(5.0, [] {});
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterPopIsNoop) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  const EventId id = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PoppedCarriesTime) {
  EventQueue q;
  q.push(4.5, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 4.5);
}

// Model check: a seeded random mix of push (few distinct times, so ties are
// common), pop and cancel, compared after every step with a std::map keyed
// by (time, insertion order), the order the queue documents.
TEST(EventQueue, MatchesOrderedMapModel) {
  enum class State { kPending, kPopped, kCancelled };
  struct Issued {
    EventId id;
    State state;
  };
  common::Rng rng(0x51ab);
  EventQueue q;
  std::map<std::pair<common::SimTime, std::size_t>, std::size_t> model;
  std::vector<Issued> issued;            // by tag (= push order)
  std::map<EventId, std::size_t> owner;  // slot -> tag pushed into it last
  std::size_t ran = 0;
  common::SimTime clock = 0.0;
  int top_cancels = 0, double_cancels = 0, popped_cancels = 0,
      reused_cancels = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform_index(20);
    if (op < 9) {
      // Never into the popped past: pop order stays monotone.
      const common::SimTime t =
          clock + 0.5 * static_cast<double>(rng.uniform_index(6));
      const std::size_t tag = issued.size();
      const EventId id = q.push(t, [&ran, tag] { ran = tag; });
      issued.push_back({id, State::kPending});
      owner[id & 0xffffffffu] = tag;
      model.emplace(std::make_pair(t, tag), tag);
    } else if (op < 16) {
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) continue;
      const auto top = model.begin();
      EventQueue::Popped popped = q.pop();
      ASSERT_EQ(popped.time, top->first.first);
      popped.fn();
      ASSERT_EQ(ran, top->second) << "step " << step;
      clock = popped.time;
      issued[top->second].state = State::kPopped;
      model.erase(top);
    } else if (!issued.empty()) {
      // Half the cancels hit the current top; the rest pick any id ever
      // issued, most of them long dead.
      const bool at_top = !model.empty() && rng.bernoulli(0.5);
      const std::size_t tag = at_top ? model.begin()->second
                                     : rng.uniform_index(issued.size());
      Issued& ev = issued[tag];
      const bool expect = ev.state == State::kPending;
      if (expect && at_top) ++top_cancels;
      if (ev.state == State::kCancelled) ++double_cancels;
      if (ev.state == State::kPopped) ++popped_cancels;
      if (!expect && owner[ev.id & 0xffffffffu] != tag) ++reused_cancels;
      ASSERT_EQ(q.cancel(ev.id), expect) << "step " << step << " tag " << tag;
      if (expect) {
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == tag) {
            model.erase(it);
            break;
          }
        }
        ev.state = State::kCancelled;
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "step " << step;
    ASSERT_EQ(q.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(q.next_time(), model.begin()->first.first);
    }
  }
  EXPECT_GT(top_cancels, 0);
  EXPECT_GT(double_cancels, 0);
  EXPECT_GT(popped_cancels, 0);
  EXPECT_GT(reused_cancels, 0);
}

}  // namespace
}  // namespace dlion::sim
