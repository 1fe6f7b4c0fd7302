// Tests for the message helpers (comm/message.h): entry counts and density,
// control/data lane classification, and the wire size the fabric charges
// for every message type.
//
// wire_bytes is a closed form. Its goldens below were recorded from the
// encoder that once serialised these messages, little-endian, fixed-width
// and unpadded. Every figure's traffic and timing rests on them, so a
// change to any value here changes every result.

#include "comm/message.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace dlion::comm {
namespace {

GradientUpdate sample_update() {
  GradientUpdate u;
  u.from = 3;
  u.iteration = 12345;
  u.lbs = 64;
  VariableGrad sparse;
  sparse.var_index = 0;
  sparse.dense_size = 100;
  sparse.indices = {1, 17, 99};
  sparse.values = {0.5f, -2.0f, 3.25f};
  VariableGrad dense;
  dense.var_index = 1;
  dense.dense_size = 4;
  dense.values = {1, 2, 3, 4};
  u.vars = {sparse, dense};
  return u;
}

/// Two parts of {3, 2} floats, the shape every weight-bearing golden uses.
WeightPayload sample_weights() {
  WeightPayload w;
  w.parts.emplace_back(std::vector<float>{1.0f, 2.0f, 3.0f});
  w.parts.emplace_back(std::vector<float>{-4.0f, 0.5f});
  return w;
}

TEST(Message, DensityAndEntries) {
  const GradientUpdate u = sample_update();
  EXPECT_EQ(u.num_entries(), 7u);
  EXPECT_DOUBLE_EQ(u.density(104), 7.0 / 104.0);
}

TEST(Message, ControlClassification) {
  EXPECT_TRUE(is_control(Message(LossReport{})));
  EXPECT_TRUE(is_control(Message(DktRequest{})));
  EXPECT_TRUE(is_control(Message(RcpReport{})));
  EXPECT_FALSE(is_control(Message(GradientUpdate{})));
  EXPECT_FALSE(is_control(Message(WeightSnapshot{})));
}

TEST(WireBytes, GradientUpdateGoldens) {
  // 20 B header; per variable a 16 B header, 4 B per index, 4 B per value.
  const GradientUpdate u = sample_update();
  EXPECT_EQ(wire_bytes(u), 92u);
  EXPECT_EQ(wire_bytes(Message(u)), 92u);
  EXPECT_EQ(wire_bytes(GradientUpdate{}), 20u);
}

TEST(WireBytes, WeightBearingGoldens) {
  // A fixed header, then a 4 B length and 4 B per float for each part.
  WeightSnapshot snapshot;
  EXPECT_EQ(wire_bytes(Message(snapshot)), 24u);
  snapshot.weights = sample_weights();
  EXPECT_EQ(wire_bytes(Message(snapshot)), 52u);
}

TEST(WireBytes, ControlMessagesChargeAFlat64Bytes) {
  // A flat charge per control message, not the size of its fields.
  const Message controls[] = {LossReport{1, 2, 0.5}, DktRequest{1, 2},
                              RcpReport{1, 64.0}, Heartbeat{1, 2}, Ack{1, 2}};
  for (const Message& m : controls) {
    EXPECT_TRUE(is_control(m)) << message_type_name(m);
    EXPECT_EQ(wire_bytes(m), 64u) << message_type_name(m);
  }
}

TEST(WireBytes, ArenaViewsChargeLikeOwnedPayloads) {
  // The fabric charges a message by its shape alone: staging the same
  // payloads through a PayloadWriter (the production route) changes
  // nothing.
  PayloadArena arena;
  PayloadWriter writer(arena);
  const GradientUpdate owned = sample_update();
  GradientUpdate staged = owned;
  for (VariableGrad& v : staged.vars) {
    v.indices = writer.copy(v.indices.span());
    v.values = writer.copy(v.values.span());
  }
  EXPECT_EQ(wire_bytes(staged), wire_bytes(owned));

  const WeightPayload owned_weights = sample_weights();
  WeightPayload staged_weights;
  for (const Payload<float>& p : owned_weights.parts) {
    staged_weights.parts.push_back(writer.copy(p.span()));
  }
  EXPECT_EQ(wire_bytes(Message(WeightSnapshot{2, 9, 0.5, staged_weights})),
            wire_bytes(Message(WeightSnapshot{2, 9, 0.5, owned_weights})));
}

}  // namespace
}  // namespace dlion::comm
