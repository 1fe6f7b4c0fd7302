#include "sim/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace dlion::sim {
namespace {

TEST(Network, TransferTimeMatchesBandwidth) {
  Engine e;
  Network net(e, 2);  // one peer: the egress share is the full egress
  net.set_egress(0, Schedule(8.0));  // 8 Mbps = 1 MB/s
  net.set_latency(0, 1, 0.0);
  double delivered_at = -1;
  net.send(0, 1, 1'000'000, [&] { delivered_at = e.now(); });
  e.run();
  EXPECT_NEAR(delivered_at, 1.0, 1e-9);
}

TEST(Network, LatencyAddsAfterTransmission) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));
  net.set_latency(0, 1, 0.5);
  double delivered_at = -1;
  net.send(0, 1, 1'000'000, [&] { delivered_at = e.now(); });
  e.run();
  EXPECT_NEAR(delivered_at, 1.5, 1e-9);
}

TEST(Network, ParallelLinksShareEgressFairly) {
  Engine e;
  Network net(e, 3);  // two peers: each link gets egress/2
  net.set_egress(0, Schedule(8.0));
  net.set_all_latency(0.0);
  std::vector<std::pair<int, double>> deliveries;
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back({1, e.now()}); });
  net.send(0, 2, 1'000'000, [&] { deliveries.push_back({2, e.now()}); });
  e.run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Both transfers run in parallel at 4 Mbps = 0.5 MB/s -> 2 s each.
  EXPECT_NEAR(deliveries[0].second, 2.0, 1e-9);
  EXPECT_NEAR(deliveries[1].second, 2.0, 1e-9);
}

TEST(Network, SameLinkTransfersSerializeFifo) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));
  net.set_all_latency(0.0);
  std::vector<double> deliveries;
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  e.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 1.0, 1e-9);
  EXPECT_NEAR(deliveries[1], 2.0, 1e-9);  // waited for the first
}

TEST(Network, LinkMatrixLimitsRate) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(1000.0));
  net.set_link(0, 1, Schedule(8.0));  // slow WAN path
  net.set_all_latency(0.0);
  double delivered_at = -1;
  net.send(0, 1, 1'000'000, [&] { delivered_at = e.now(); });
  e.run();
  EXPECT_NEAR(delivered_at, 1.0, 1e-9);
}

TEST(Network, AvailableMbpsIsMinOfEgressShareAndLink) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(50.0));
  net.set_link(0, 1, Schedule(30.0));
  EXPECT_DOUBLE_EQ(net.available_mbps(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(net.egress_mbps(0), 50.0);
  EXPECT_DOUBLE_EQ(net.link_mbps(0, 1), 30.0);
  // With more peers, the egress share divides by n-1.
  Network net3(e, 3);
  net3.set_egress(0, Schedule(50.0));
  EXPECT_DOUBLE_EQ(net3.available_mbps(0, 1), 25.0);
}

TEST(Network, BandwidthScheduleChangesOverTime) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule{{0.0, 8.0}, {10.0, 80.0}});
  net.set_all_latency(0.0);
  std::vector<double> deliveries;
  // First transfer starts at t=0 at 8 Mbps -> 1 s.
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  // Second transfer scheduled after the schedule change: starts at 10 s at
  // 80 Mbps -> 0.1 s.
  e.at(10.0, [&] {
    net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 1.0, 1e-9);
  EXPECT_NEAR(deliveries[1], 10.1, 1e-9);
}

TEST(Network, SelfSendDeliversImmediately) {
  Engine e;
  Network net(e, 2);
  bool delivered = false;
  net.send(0, 0, 1'000'000'000, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Network, StatsCountBytesAndMessages) {
  Engine e;
  Network net(e, 3);
  net.send(0, 1, 100, [] {});
  net.send(0, 2, 200, [] {});
  net.send(1, 2, 300, [] {});
  e.run();
  EXPECT_EQ(net.stats(0).bytes_sent, 300u);
  EXPECT_EQ(net.stats(0).messages_sent, 2u);
  EXPECT_EQ(net.total_stats().bytes_sent, 600u);
  EXPECT_EQ(net.total_stats().messages_sent, 3u);
}

TEST(Network, OutOfRangeThrows) {
  Engine e;
  Network net(e, 2);
  EXPECT_THROW(net.send(0, 5, 1, [] {}), std::out_of_range);
}

// --- Delivery semantics -------------------------------------------------

TEST(Network, LatencyDoesNotOccupyTheLink) {
  // Propagation delay is added after transmission without holding the link:
  // back-to-back transfers serialize on transmission time only, so their
  // latencies overlap instead of adding up.
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));   // 1 MB/s -> 1 s per message
  net.set_latency(0, 1, 10.0);
  std::vector<double> deliveries;
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  e.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 11.0, 1e-9);  // 1 s tx + 10 s latency
  EXPECT_NEAR(deliveries[1], 12.0, 1e-9);  // NOT 22 s
}

TEST(Network, FifoOrderPreservedWithHeterogeneousSizes) {
  // A small message enqueued behind a large one on the same link must not
  // overtake it, even though it would transmit faster on an idle link.
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));
  net.set_all_latency(0.0);
  std::vector<int> order;
  net.send(0, 1, 1'000'000, [&] { order.push_back(1); });
  net.send(0, 1, 1'000, [&] { order.push_back(2); });
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// --- Fault injection ----------------------------------------------------

TEST(Network, BlackoutDropsAtEnqueueWithoutDelivering) {
  Engine e;
  Network net(e, 2);
  FaultSchedule s;
  s.blackout(0, 1, 0.0, 10.0);
  FaultInjector inj(s);
  net.set_fault_injector(&inj);
  bool delivered = false;
  net.send(0, 1, 1'000, [&] { delivered = true; });
  e.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.stats(0).messages_dropped, 1u);
  EXPECT_EQ(net.stats(0).bytes_dropped, 1'000u);
  EXPECT_EQ(net.total_stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats(0).messages_sent, 0u);  // the drop never transmits
}

TEST(Network, MessageInFlightWhenBlackoutStartsIsDropped) {
  // The link goes dark mid-transmission: the transfer completes its send
  // side but the delivery is suppressed (the payload died on the wire).
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));  // 1 MB -> 1 s transmission
  net.set_all_latency(0.0);
  FaultSchedule s;
  s.blackout(0, 1, 0.5, 10.0);  // starts while the message is in flight
  FaultInjector inj(s);
  net.set_fault_injector(&inj);
  bool delivered = false;
  net.send(0, 1, 1'000'000, [&] { delivered = true; });
  e.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.total_stats().messages_dropped, 1u);
  // The link was freed despite the drop: a send after the blackout
  // transmits at once and delivers one transmission time later.
  double delivered_at = -1.0;
  e.at(12.0, [&] {
    net.send(0, 1, 1'000'000, [&] { delivered_at = e.now(); });
  });
  e.run();
  EXPECT_NEAR(delivered_at, 13.0, 1e-9);
}

TEST(Network, BlackoutDoesNotWedgeSubsequentTraffic) {
  Engine e;
  Network net(e, 2);
  net.set_egress(0, Schedule(8.0));
  net.set_all_latency(0.0);
  FaultSchedule s;
  s.blackout(0, 1, 0.0, 5.0);
  FaultInjector inj(s);
  net.set_fault_injector(&inj);
  std::vector<double> deliveries;
  net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });  // dropped
  e.at(6.0, [&] {
    net.send(0, 1, 1'000'000, [&] { deliveries.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_NEAR(deliveries[0], 7.0, 1e-9);  // post-blackout traffic flows
}

TEST(Network, CrashedWorkerDropsInboundOutboundAndSelfSends) {
  Engine e;
  Network net(e, 3);
  FaultSchedule s;
  s.crash(1, 0.0, 10.0);
  FaultInjector inj(s);
  net.set_fault_injector(&inj);
  int delivered = 0;
  net.send(0, 1, 100, [&] { ++delivered; });  // inbound to crashed
  net.send(1, 2, 100, [&] { ++delivered; });  // outbound from crashed
  net.send(1, 1, 100, [&] { ++delivered; });  // self-send on crashed
  net.send(0, 2, 100, [&] { ++delivered; });  // healthy link unaffected
  e.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.total_stats().messages_dropped, 3u);
}

TEST(Network, LossyLinkDropsAreDeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    Network net(e, 2);
    net.set_all_latency(0.0);
    FaultSchedule s;
    s.lossy(0, 1, 0.5, 0.0, 1000.0);
    FaultInjector inj(s);
    net.set_fault_injector(&inj);
    std::vector<int> delivered;
    for (int i = 0; i < 100; ++i) {
      net.send(0, 1, 1'000, [&delivered, i] { delivered.push_back(i); });
    }
    e.run();
    return delivered;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
  EXPECT_LT(a.size(), 100u);  // p=0.5 drops some, not all
}

TEST(Network, NoInjectorMeansNoDropAccounting) {
  Engine e;
  Network net(e, 2);
  bool delivered = false;
  net.send(0, 1, 100, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.total_stats().messages_dropped, 0u);
  EXPECT_EQ(net.total_stats().bytes_dropped, 0u);
}

}  // namespace
}  // namespace dlion::sim
