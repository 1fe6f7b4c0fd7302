// The allocation-free message path: pooled nodes, and the fabric's transfer
// slots on every way a transmission can end (delivered, dropped at enqueue,
// dropped in flight).
#include <gtest/gtest.h>

#include <vector>

#include "comm/fabric.h"
#include "comm/node_pool.h"
#include "sim/fault_injector.h"

#if defined(__SANITIZE_ADDRESS__)
#define DLION_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLION_TEST_ASAN 1
#endif
#endif
#if defined(DLION_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace dlion::comm {
namespace {

TEST(NodePool, FreedNodeIsReusedForItsSizeClass) {
  void* a = NodePool::allocate(96);
  const std::size_t free_before = NodePool::free_nodes();
  NodePool::deallocate(a, 96);
  EXPECT_EQ(NodePool::free_nodes(), free_before + 1);
  void* b = NodePool::allocate(90);  // same 16-byte class as 96
  EXPECT_EQ(a, b);
  EXPECT_EQ(NodePool::free_nodes(), free_before);
  NodePool::deallocate(b, 90);
}

TEST(NodePool, LargeRequestsBypassThePool) {
  const std::size_t free_before = NodePool::free_nodes();
  void* p = NodePool::allocate(NodePool::kMaxPooledBytes + 1);
  NodePool::deallocate(p, NodePool::kMaxPooledBytes + 1);
  EXPECT_EQ(NodePool::free_nodes(), free_before);
}

TEST(NodePool, MessagesAndVarListsRecycleNodes) {
  // Warm: one message and one list, freed.
  { const MessagePtr m = make_message(LossReport{1, 2, 0.5}); }
  { VarList vars(6); }
  const std::size_t warm = NodePool::free_nodes();
  {
    const MessagePtr m = make_message(LossReport{1, 3, 0.25});
    VarList vars(6);
    EXPECT_EQ(NodePool::free_nodes(), warm - 2);
    EXPECT_DOUBLE_EQ(std::get<LossReport>(*m).avg_loss, 0.25);
  }
  EXPECT_EQ(NodePool::free_nodes(), warm);
}

#if defined(DLION_TEST_ASAN)
TEST(NodePool, FreeListNodesArePoisonedUnderAsan) {
  auto* p = static_cast<unsigned char*>(NodePool::allocate(64));
  p[0] = 1;
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  NodePool::deallocate(p, 64);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 63));
  void* q = NodePool::allocate(64);
  EXPECT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  NodePool::deallocate(q, 64);
}
#endif

struct Delivered {
  std::size_t to;
  std::size_t from;
  std::size_t type;
  double time;
};

GradientUpdate dense_update(PayloadArena& arena, std::uint32_t n) {
  PayloadWriter writer(arena);
  float* v = writer.stage<float>(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = 0.5f * static_cast<float>(i);
  GradientUpdate u;
  u.vars.push_back(VariableGrad{0, n, {}, writer.commit(v, n)});
  return u;
}

// One run through each drop path of sim::Network, with arena-backed
// payloads:
//  * 0->1 is lossy (p = 0.5): 5 of 8 updates die in the loss draw at
//    enqueue; the other 3 queue FIFO, 1.5 s each on the shaped uplink;
//  * worker 2 crashes at t = 1 s while the 0->2 update is on the wire
//    (t = 0 to 1.5 s): it is dropped at transmission end;
//  * the acks of a reliable 0->3 request are lost until t = 2.5 s: two
//    acks die at enqueue, the attempt at t = 3 s is acked.
// Every count and time below was recorded on the implementation that
// captured each transmission in its own heap-allocated callback; the
// pooled path must reproduce it exactly and free every slot and block.
TEST(FabricDropPath, DropsFreeSlotsAndPayloadBlocksWhereTheyHappen) {
  sim::Engine engine;
  sim::Network net(engine, 4);
  net.set_egress(0, sim::Schedule(8.0));  // 8/3 Mbps per peer link
  sim::FaultSchedule faults;
  faults.lossy(0, 1, 0.5, 0.0, 100.0);
  faults.crash(2, 1.0, 50.0);
  faults.lossy(3, 0, 1.0, 0.0, 2.5);
  sim::FaultInjector injector(faults);
  net.set_fault_injector(&injector);
  Fabric fabric(net, 1.0);
  std::vector<Delivered> log;
  for (std::size_t w = 0; w < 4; ++w) {
    fabric.attach(w, [&, w](std::size_t from, MessagePtr m) {
      log.push_back({w, from, m->index(), engine.now()});
    });
  }
  PayloadArena arena_01;
  PayloadArena arena_02;
  {
    const GradientUpdate to_1 = dense_update(arena_01, 125000);
    for (int i = 0; i < 8; ++i) fabric.send(0, 1, to_1);
    fabric.send(0, 2, dense_update(arena_02, 125000));
  }
  RetryPolicy policy;
  policy.timeout_s = 1.0;
  policy.backoff = 2.0;
  policy.max_attempts = 5;
  double acked_at = -1.0;
  fabric.send_reliable(0, 3, DktRequest{0, 7}, policy,
                       [&](bool ok) { acked_at = ok ? engine.now() : -2.0; });
  EXPECT_EQ(fabric.in_flight(), 5u);  // 3 queued to 1, 1 to 2, 1 to 3

  // Just after the in-flight drop: the dropped update's slot and block are
  // free already; two updates to worker 1 are still on their link.
  engine.run_until(1.6);
  EXPECT_EQ(arena_02.pinned_blocks(), 0u);
  EXPECT_EQ(arena_01.pinned_blocks(), 1u);
  EXPECT_EQ(fabric.in_flight(), 2u);

  engine.run();
  EXPECT_EQ(fabric.in_flight(), 0u);
  EXPECT_EQ(arena_01.pinned_blocks(), 0u);
  EXPECT_EQ(arena_02.pinned_blocks(), 0u);

  ASSERT_EQ(log.size(), 4u);
  const std::size_t kUpdate = 0;
  const std::size_t kDktRequest = 3;
  const Delivered expected[] = {
      {3, 0, kDktRequest, 0.00039199999999999999},
      {1, 0, kUpdate, 1.500308},
      {1, 0, kUpdate, 3.000416},
      {1, 0, kUpdate, 4.5005240000000004},
  };
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].to, expected[i].to) << i;
    EXPECT_EQ(log[i].from, expected[i].from) << i;
    EXPECT_EQ(log[i].type, expected[i].type) << i;
    EXPECT_EQ(log[i].time, expected[i].time) << i;
  }
  EXPECT_EQ(net.stats(0).messages_sent, 7u);
  EXPECT_EQ(net.stats(0).bytes_sent, 2000336u);
  EXPECT_EQ(net.stats(0).messages_dropped, 6u);  // 5 lost, 1 in flight
  EXPECT_EQ(net.stats(0).bytes_dropped, 3000216u);
  EXPECT_EQ(net.stats(3).messages_sent, 1u);     // the surviving ack
  EXPECT_EQ(net.stats(3).messages_dropped, 2u);  // the lost acks
  EXPECT_EQ(net.stats(3).bytes_dropped, 128u);
  EXPECT_EQ(injector.loss_drops(), 7u);
  EXPECT_EQ(fabric.reliable_retries(), 2u);
  EXPECT_EQ(fabric.reliable_failures(), 0u);
  EXPECT_EQ(fabric.dead_letters(), 0u);
  EXPECT_EQ(acked_at, 3.0005935360000002);
  EXPECT_EQ(engine.now(), 4.5005240000000004);
  EXPECT_EQ(engine.events_executed(), 17u);
}

}  // namespace
}  // namespace dlion::comm
