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

TEST_F(FabricTest, TargetedBroadcastSkipsUnflaggedWorkers) {
  std::vector<bool> targets = {true, false, true};
  fabric_.broadcast(2, LossReport{2, 0, 0.5}, targets);
  engine_.run();
  EXPECT_EQ(inbox_[0].size(), 1u);
  EXPECT_EQ(inbox_[1].size(), 0u);  // not flagged
  EXPECT_EQ(inbox_[2].size(), 0u);  // no self-delivery
}

}  // namespace
}  // namespace dlion::comm
