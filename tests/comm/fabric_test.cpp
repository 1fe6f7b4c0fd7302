#include "comm/fabric.h"

#include <gtest/gtest.h>

#include <vector>

namespace dlion::comm {
namespace {

struct Received {
  std::size_t from;
  MessagePtr msg;
  double time;
};

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : net_(engine_, 3), fabric_(net_, 2.0) {
    for (std::size_t w = 0; w < 3; ++w) {
      fabric_.attach(w, [this, w](std::size_t from, MessagePtr msg) {
        inbox_[w].push_back({from, std::move(msg), engine_.now()});
      });
    }
  }

  sim::Engine engine_;
  sim::Network net_;
  Fabric fabric_;
  std::vector<Received> inbox_[3];
};

TEST_F(FabricTest, DeliversTypedMessage) {
  fabric_.send(0, 1, LossReport{0, 5, 0.25});
  engine_.run();
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_EQ(inbox_[1][0].from, 0u);
  const auto& report = std::get<LossReport>(*inbox_[1][0].msg);
  EXPECT_DOUBLE_EQ(report.avg_loss, 0.25);
}

TEST_F(FabricTest, BroadcastReachesAllOthers) {
  fabric_.broadcast(1, LossReport{1, 0, 0.5});
  engine_.run();
  EXPECT_EQ(inbox_[0].size(), 1u);
  EXPECT_EQ(inbox_[1].size(), 0u);  // no self-delivery
  EXPECT_EQ(inbox_[2].size(), 1u);
}

TEST_F(FabricTest, DataMessagesScaledControlNot) {
  GradientUpdate u;
  u.vars.push_back(VariableGrad{0, 4, {}, {1, 2, 3, 4}});
  const Message data(u);
  const Message control(LossReport{});
  EXPECT_EQ(fabric_.charged_bytes(data), 2 * wire_bytes(data));
  EXPECT_EQ(fabric_.charged_bytes(control), wire_bytes(control));
}

TEST_F(FabricTest, ChargedBytesReachNetworkStats) {
  GradientUpdate u;
  u.vars.push_back(VariableGrad{0, 4, {}, {1, 2, 3, 4}});
  const common::Bytes expected = fabric_.charged_bytes(Message(u));
  fabric_.send(0, 1, u);
  engine_.run();
  EXPECT_EQ(net_.stats(0).bytes_sent, expected);
}

TEST_F(FabricTest, TransferTimeScalesWithChargedSize) {
  net_.set_egress(0, sim::Schedule(8.0));  // 1 MB/s
  net_.set_all_latency(0.0);
  GradientUpdate u;
  u.vars.push_back(VariableGrad{0, 125000,
                                {}, std::vector<float>(125000, 1.0f)});
  // 500016 raw bytes * 2.0 scale ~ 1.0 MB over the fair egress share
  // 8 Mbps / 2 peers = 4 Mbps -> ~2 s.
  fabric_.send(0, 1, u);
  engine_.run();
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_NEAR(inbox_[1][0].time, 2.0, 0.01);
}

TEST_F(FabricTest, SendWithoutHandlerDeadLetters) {
  // Delivery to a detached worker never throws: the message is counted as a
  // dead letter and discarded (crash semantics).
  sim::Engine e2;
  sim::Network n2(e2, 2);
  Fabric f2(n2, 1.0);
  EXPECT_NO_THROW(f2.send(0, 1, LossReport{}));
  e2.run();
  EXPECT_EQ(f2.dead_letters(), 1u);
  EXPECT_EQ(f2.dead_letters(1), 1u);
  EXPECT_EQ(f2.dead_letters(0), 0u);
}

TEST_F(FabricTest, DetachDropsThenReattachResumesDelivery) {
  fabric_.detach(1);
  EXPECT_FALSE(fabric_.attached(1));
  fabric_.send(0, 1, LossReport{0, 1, 0.5});
  engine_.run();
  EXPECT_EQ(inbox_[1].size(), 0u);
  EXPECT_EQ(fabric_.dead_letters(1), 1u);
  fabric_.attach(1, [this](std::size_t from, MessagePtr msg) {
    inbox_[1].push_back({from, std::move(msg), engine_.now()});
  });
  fabric_.send(0, 1, LossReport{0, 2, 0.25});
  engine_.run();
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_EQ(fabric_.dead_letters(1), 1u);  // no new dead letters
}

TEST_F(FabricTest, BroadcastSharesOneMessageAcrossReceivers) {
  // Satellite fix: broadcast materializes the message and computes its wire
  // size exactly once; every receiver sees the same immutable MessagePtr.
  fabric_.broadcast(1, LossReport{1, 7, 0.125});
  engine_.run();
  ASSERT_EQ(inbox_[0].size(), 1u);
  ASSERT_EQ(inbox_[2].size(), 1u);
  EXPECT_EQ(inbox_[0][0].msg.get(), inbox_[2][0].msg.get());
}

TEST_F(FabricTest, ReliableSendAcksWithoutRetriesOnHealthyLink) {
  bool acked = false;
  fabric_.send_reliable(0, 1, DktRequest{0, 3}, RetryPolicy{},
                        [&](bool ok) { acked = ok; });
  engine_.run();
  EXPECT_TRUE(acked);
  ASSERT_EQ(inbox_[1].size(), 1u);  // delivered exactly once
  EXPECT_TRUE(std::holds_alternative<DktRequest>(*inbox_[1][0].msg));
  EXPECT_EQ(fabric_.reliable_retries(), 0u);
  EXPECT_EQ(fabric_.reliable_failures(), 0u);
  EXPECT_EQ(fabric_.reliable_pending(), 0u);
}

TEST_F(FabricTest, AcksNeverSurfaceToHandlers) {
  fabric_.send_reliable(0, 1, DktRequest{0, 3});
  engine_.run();
  for (const auto& inbox : inbox_) {
    for (const auto& r : inbox) {
      EXPECT_FALSE(std::holds_alternative<Ack>(*r.msg));
    }
  }
}

TEST_F(FabricTest, ReliableRetriesUntilReceiverReattaches) {
  // The receiver is down for the first attempts; the sender's exponential
  // backoff outlives the outage and the request lands exactly once.
  fabric_.detach(1);
  bool acked = false;
  RetryPolicy policy;
  policy.timeout_s = 1.0;
  policy.backoff = 2.0;
  policy.max_attempts = 5;  // attempts at ~0, 1, 3, 7, 15 s
  fabric_.send_reliable(0, 1, DktRequest{0, 9}, policy,
                        [&](bool ok) { acked = ok; });
  engine_.at(5.0, [this] {
    fabric_.attach(1, [this](std::size_t from, MessagePtr msg) {
      inbox_[1].push_back({from, std::move(msg), engine_.now()});
    });
  });
  engine_.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(inbox_[1].size(), 1u);
  EXPECT_GE(fabric_.reliable_retries(), 2u);
  EXPECT_EQ(fabric_.reliable_failures(), 0u);
  EXPECT_EQ(fabric_.reliable_pending(), 0u);
}

TEST_F(FabricTest, ReliableFailsAfterExhaustingAttempts) {
  fabric_.detach(1);
  bool called = false;
  bool acked = true;
  RetryPolicy policy;
  policy.timeout_s = 0.5;
  policy.max_attempts = 3;
  fabric_.send_reliable(0, 1, DktRequest{0, 4}, policy, [&](bool ok) {
    called = true;
    acked = ok;
  });
  engine_.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(acked);
  EXPECT_EQ(fabric_.reliable_failures(), 1u);
  EXPECT_EQ(fabric_.reliable_retries(), policy.max_attempts - 1);
  EXPECT_EQ(fabric_.reliable_pending(), 0u);
  EXPECT_GE(fabric_.dead_letters(1), policy.max_attempts);
}

TEST(FabricFaults, LostAckTriggersRetryButSuppressesDuplicateDelivery) {
  // Ack path 1->0 is 100% lossy for a while: the data arrives, the ack
  // dies, the sender retries, and the receiver re-acks without re-delivering
  // - at-least-once attempts, at-most-once delivery.
  sim::Engine e;
  sim::Network net(e, 2);
  sim::FaultSchedule s;
  s.lossy(1, 0, 1.0, 0.0, 2.5);  // only the reverse (ack) direction
  sim::FaultInjector inj(s);
  net.set_fault_injector(&inj);
  Fabric fabric(net, 1.0);
  std::vector<MessagePtr> inbox0, inbox1;
  fabric.attach(0, [&](std::size_t, MessagePtr m) {
    inbox0.push_back(std::move(m));
  });
  fabric.attach(1, [&](std::size_t, MessagePtr m) {
    inbox1.push_back(std::move(m));
  });
  bool acked = false;
  RetryPolicy policy;
  policy.timeout_s = 1.0;
  policy.backoff = 2.0;
  policy.max_attempts = 5;  // attempts at ~0, 1, 3 s; ack survives after 2.5
  fabric.send_reliable(0, 1, DktRequest{0, 11}, policy,
                       [&](bool ok) { acked = ok; });
  e.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(inbox1.size(), 1u) << "duplicate attempts must not re-deliver";
  EXPECT_EQ(inbox0.size(), 0u) << "acks are transport-level";
  EXPECT_GE(fabric.reliable_retries(), 2u);
  EXPECT_EQ(fabric.reliable_failures(), 0u);
}

TEST(Fabric, InvalidScaleThrows) {
  sim::Engine e;
  sim::Network n(e, 2);
  EXPECT_THROW(Fabric(n, 0.0), std::invalid_argument);
  EXPECT_THROW(Fabric(n, -1.0), std::invalid_argument);
}

TEST_F(FabricTest, EpochFloorRejectsStaleTrafficDeterministically) {
  // Receiver 1 joined at epoch 3; traffic stamped with an older epoch (a
  // sender that has not adopted the roster yet, or in-flight messages
  // addressed to the slot's previous occupant) is rejected, never handled.
  fabric_.set_epoch_floor(1, 3);
  fabric_.set_epoch(0, 2);
  fabric_.send(0, 1, LossReport{0, 1, 0.5});
  engine_.run();
  EXPECT_EQ(inbox_[1].size(), 0u);
  EXPECT_EQ(fabric_.stale_epoch_rejected(), 1u);
  // Once the sender adopts an epoch at or above the floor, traffic flows.
  fabric_.set_epoch(0, 3);
  fabric_.send(0, 1, LossReport{0, 2, 0.5});
  engine_.run();
  EXPECT_EQ(inbox_[1].size(), 1u);
  EXPECT_EQ(fabric_.stale_epoch_rejected(), 1u);
}

TEST_F(FabricTest, EpochStampIsCapturedAtTransmitTime) {
  // The stamp rides the transmission, not the delivery: a message sent
  // while the sender was at epoch 5 passes a floor of 5 even if the floor
  // was raised after the send but before delivery.
  fabric_.set_epoch(0, 5);
  fabric_.send(0, 2, LossReport{0, 1, 0.25});
  fabric_.set_epoch_floor(2, 5);
  engine_.run();
  EXPECT_EQ(inbox_[2].size(), 1u);
  EXPECT_EQ(fabric_.stale_epoch_rejected(), 0u);
}

TEST(Fabric, DeadLetterQueueIsBoundedWithEvictionCounter) {
  sim::Engine e;
  sim::Network net(e, 2);
  Fabric fabric(net);
  fabric.attach(0, [](std::size_t, MessagePtr) {});
  // Worker 1 never attaches: every message to it dead-letters.
  const std::size_t sent = Fabric::kDeadLetterCap + 5;
  for (std::size_t i = 0; i < sent; ++i) fabric.send(0, 1, Heartbeat{0, i});
  e.run();
  EXPECT_EQ(fabric.dead_letters(), sent);
  EXPECT_EQ(fabric.recent_dead_letters().size(), Fabric::kDeadLetterCap);
  EXPECT_EQ(fabric.dead_letter_evictions(), 5u);
  // The retained records are the most recent ones, oldest evicted first.
  std::uint64_t expected = 5;
  for (const DeadLetter& dl : fabric.recent_dead_letters()) {
    EXPECT_EQ(dl.from, 0u);
    EXPECT_EQ(dl.to, 1u);
    ASSERT_NE(dl.msg, nullptr);
    EXPECT_EQ(std::get<Heartbeat>(*dl.msg).iteration, expected++);
  }
}

/// Dense gradient with `n` float values: pins exactly n * 4 payload bytes.
GradientUpdate dense_payload_update(std::size_t n) {
  GradientUpdate u;
  u.from = 0;
  VariableGrad vg;
  vg.var_index = 0;
  vg.dense_size = static_cast<std::uint32_t>(n);
  vg.values = std::vector<float>(n, 1.0f);
  u.vars.push_back(std::move(vg));
  return u;
}

/// Float count of a gradient that pins 3 MiB: two fit under the 8 MiB
/// pinned-byte bound, a third does not.
constexpr std::size_t kThreeMiBFloats = 3 * 1024 * 1024 / sizeof(float);

TEST(Fabric, DeadLetterQueueEvictsByPinnedPayloadBytes) {
  sim::Engine e;
  sim::Network net(e, 2);
  Fabric fabric(net);
  fabric.attach(0, [](std::size_t, MessagePtr) {});
  for (std::uint64_t i = 0; i < 5; ++i) {
    GradientUpdate u = dense_payload_update(kThreeMiBFloats);
    u.iteration = i;
    fabric.send(0, 1, std::move(u));
  }
  e.run();
  EXPECT_EQ(fabric.dead_letters(), 5u);
  // 5 x 3 MiB pinned exceeds the 8 MiB bound: evict oldest-first down to 2
  // records / 6 MiB even though the record bound (256) was never reached.
  EXPECT_EQ(fabric.recent_dead_letters().size(), 2u);
  EXPECT_EQ(fabric.dead_letter_evictions(), 3u);
  EXPECT_EQ(fabric.dead_letter_pinned_bytes(), 6u * 1024 * 1024);
  EXPECT_LE(fabric.dead_letter_pinned_bytes(), Fabric::kDeadLetterMaxBytes);
  std::uint64_t expected = 3;
  for (const DeadLetter& dl : fabric.recent_dead_letters()) {
    EXPECT_EQ(dl.payload_bytes, 3u * 1024 * 1024);
    ASSERT_NE(dl.msg, nullptr);
    EXPECT_EQ(payload_bytes(*dl.msg), 3u * 1024 * 1024);
    EXPECT_EQ(std::get<GradientUpdate>(*dl.msg).iteration, expected++);
  }
}

TEST(Fabric, DeadLetterControlMessagesPinNoBytes) {
  sim::Engine e;
  sim::Network net(e, 2);
  Fabric fabric(net);
  fabric.attach(0, [](std::size_t, MessagePtr) {});
  for (std::size_t i = 0; i < Fabric::kDeadLetterCap + 5; ++i) {
    fabric.send(0, 1, Heartbeat{0, 1});
  }
  e.run();
  // Control messages carry no payload views: only the record cap binds.
  EXPECT_EQ(fabric.recent_dead_letters().size(), Fabric::kDeadLetterCap);
  EXPECT_EQ(fabric.dead_letter_pinned_bytes(), 0u);
}

#if DLION_OBS_ENABLED
TEST(Fabric, DeadLetterPinnedBytesGaugeTracksRetention) {
  sim::Engine e;
  sim::Network net(e, 2);
  Fabric fabric(net);
  obs::Observability obs(true);
  fabric.set_obs(&obs);
  fabric.attach(0, [](std::size_t, MessagePtr) {});
  for (int i = 0; i < 5; ++i) {
    fabric.send(0, 1, dense_payload_update(kThreeMiBFloats));
  }
  e.run();
  EXPECT_DOUBLE_EQ(
      obs.metrics().gauge("comm.dead_letter_pinned_bytes").value(),
      6.0 * 1024 * 1024);
}
#endif  // DLION_OBS_ENABLED

TEST_F(FabricTest, TargetedBroadcastSkipsUnflaggedWorkers) {
  std::vector<bool> targets = {true, false, true};
  fabric_.broadcast(2, LossReport{2, 0, 0.5}, targets);
  engine_.run();
  EXPECT_EQ(inbox_[0].size(), 1u);
  EXPECT_EQ(inbox_[1].size(), 0u);  // not in the roster
  EXPECT_EQ(inbox_[2].size(), 0u);  // no self-delivery
}

}  // namespace
}  // namespace dlion::comm
