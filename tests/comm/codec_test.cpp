#include "comm/codec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

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

TEST(Codec, GradientUpdateRoundTrip) {
  const GradientUpdate u = sample_update();
  const auto buf = encode(u);
  const GradientUpdate d = decode_gradient_update(buf);
  EXPECT_EQ(d.from, u.from);
  EXPECT_EQ(d.iteration, u.iteration);
  EXPECT_EQ(d.lbs, u.lbs);
  ASSERT_EQ(d.vars.size(), 2u);
  EXPECT_EQ(d.vars[0].indices, u.vars[0].indices);
  EXPECT_EQ(d.vars[0].values, u.vars[0].values);
  EXPECT_TRUE(d.vars[1].is_dense());
  EXPECT_EQ(d.vars[1].values, u.vars[1].values);
}

TEST(Codec, WireBytesMatchesEncodedSize) {
  const GradientUpdate u = sample_update();
  EXPECT_EQ(wire_bytes(u), encode(u).size());
}

TEST(Codec, EmptyUpdateRoundTrip) {
  GradientUpdate u;
  u.from = 1;
  u.iteration = 7;
  u.lbs = 32;
  const GradientUpdate d = decode_gradient_update(encode(u));
  EXPECT_EQ(d.iteration, 7u);
  EXPECT_TRUE(d.vars.empty());
}

/// Decode `buf` and return the typed failure kind (asserts it throws).
template <typename Fn>
DecodeErrorKind decode_failure_kind(Fn&& decode) {
  try {
    decode();
  } catch (const DecodeError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode accepted a malformed buffer";
  return DecodeErrorKind::kTruncated;
}

TEST(Codec, TruncatedBufferThrows) {
  auto buf = encode(sample_update());
  buf.resize(buf.size() - 4);
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kTruncated);
}

TEST(Codec, EveryTruncationPointThrowsTyped) {
  // Cutting the buffer at *any* byte must yield kTruncated or
  // kOversizedCount - never UB, never a foreign exception type.
  const auto full = encode(sample_update());
  for (std::size_t n = 0; n < full.size(); ++n) {
    std::vector<std::uint8_t> buf(full.begin(), full.begin() + n);
    EXPECT_THROW(decode_gradient_update(buf), DecodeError) << "cut at " << n;
  }
}

TEST(Codec, TrailingBytesThrow) {
  auto buf = encode(sample_update());
  buf.push_back(0);
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kTrailingBytes);
}

TEST(Codec, OversizedVarCountRejectedBeforeAllocation) {
  // Regression for the fuzzer-found decode bug: a 20-byte header whose
  // var-count field claims 2^32-1 variables used to drive a ~240 GB
  // vector::reserve before any payload validation. The count must be
  // rejected against the bytes actually remaining.
  auto buf = encode(GradientUpdate{});  // header only, vars = 0
  ASSERT_EQ(buf.size(), 20u);
  buf[16] = 0xff;  // var-count field (little-endian u32 at offset 16)
  buf[17] = 0xff;
  buf[18] = 0xff;
  buf[19] = 0xff;
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kOversizedCount);
}

TEST(Codec, OversizedTensorCountRejectedBeforeAllocation) {
  WeightSnapshot s;
  auto buf = encode(s);  // header only
  ASSERT_EQ(buf.size(), 24u);
  buf[20] = 0xff;  // tensor-count field
  buf[21] = 0xff;
  buf[22] = 0xff;
  buf[23] = 0xff;
  EXPECT_EQ(decode_failure_kind([&] { decode_weight_snapshot(buf); }),
            DecodeErrorKind::kOversizedCount);
}

TEST(Codec, IndexValueCountMismatchThrows) {
  GradientUpdate u = sample_update();
  auto buf = encode(u);
  // First var: {var_index, dense_size, nidx, nval} at offset 20; bump nidx
  // from 3 to 4 so the counts disagree.
  buf[20 + 8] = 4;
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kCountMismatch);
}

TEST(Codec, DensePayloadSizeMismatchThrows) {
  // indices empty but values.size() != dense_size and != 0: neither dense
  // nor sparse - a state no producer emits and apply_gradient_update would
  // silently ignore.
  GradientUpdate u;
  VariableGrad v;
  v.var_index = 0;
  v.dense_size = 8;
  v.values = {1.0f, 2.0f, 3.0f};  // 3 != 8
  u.vars.push_back(v);
  const auto buf = encode(u);
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kCountMismatch);
}

TEST(Codec, UnsortedSparseIndicesThrow) {
  GradientUpdate u;
  VariableGrad v;
  v.var_index = 0;
  v.dense_size = 100;
  v.indices = {17, 3};  // not strictly increasing
  v.values = {1.0f, 2.0f};
  u.vars.push_back(v);
  const auto buf = encode(u);
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kBadValue);
}

TEST(Codec, OutOfRangeSparseIndexThrows) {
  GradientUpdate u;
  VariableGrad v;
  v.var_index = 0;
  v.dense_size = 10;
  v.indices = {9, 10};  // 10 >= dense_size
  v.values = {1.0f, 2.0f};
  u.vars.push_back(v);
  const auto buf = encode(u);
  EXPECT_EQ(decode_failure_kind([&] { decode_gradient_update(buf); }),
            DecodeErrorKind::kBadValue);
}

TEST(Codec, MessageEnvelopeBadTagThrows) {
  std::vector<std::uint8_t> buf{42};  // unknown tag, no payload
  EXPECT_EQ(decode_failure_kind([&] { decode_message(buf); }),
            DecodeErrorKind::kBadTag);
  EXPECT_EQ(decode_failure_kind([&] { decode_message({}); }),
            DecodeErrorKind::kTruncated);
}

TEST(Codec, MessageEnvelopeRoundTripsEveryAlternative) {
  GradientUpdate g = sample_update();
  WeightSnapshot s;
  s.from = 2;
  s.iteration = 9;
  s.loss = -1.5;
  s.weights.parts.emplace_back(std::vector<float>{7, 8});
  const Message msgs[] = {
      Message(g),
      Message(s),
      Message(LossReport{1, 2, 0.5}),
      Message(DktRequest{3, 4}),
      Message(RcpReport{5, 64.0}),
      Message(Heartbeat{6, 7}),
      Message(Ack{8, 9}),
  };
  for (const Message& m : msgs) {
    const auto buf = encode_message(m);
    const Message d = decode_message(buf);
    EXPECT_EQ(d.index(), m.index());
    // Byte-exact round trip: re-encoding the decoded message must
    // reproduce the original buffer.
    EXPECT_EQ(encode_message(d), buf) << message_type_name(m);
  }
}

TEST(Codec, WeightSnapshotRoundTrip) {
  WeightSnapshot s;
  s.from = 2;
  s.iteration = 99;
  s.loss = 0.123;
  s.weights.parts.emplace_back(std::vector<float>{1, 2, 3});
  s.weights.parts.emplace_back(std::vector<float>{4, 5});
  const WeightSnapshot d = decode_weight_snapshot(encode(s));
  EXPECT_EQ(d.from, 2u);
  EXPECT_EQ(d.iteration, 99u);
  EXPECT_DOUBLE_EQ(d.loss, 0.123);
  ASSERT_EQ(d.weights.parts.size(), 2u);
  EXPECT_FLOAT_EQ(d.weights.parts[0][1], 2.0f);
  EXPECT_FLOAT_EQ(d.weights.parts[1][1], 5.0f);
}

TEST(Codec, SnapshotWireBytesMatchesEncoding) {
  WeightSnapshot s;
  s.weights.parts.emplace_back(std::vector<float>(10, 0.0f));
  EXPECT_EQ(wire_bytes(s), encode(s).size());
}

TEST(Codec, ControlMessagesHaveFixedSize) {
  const Message loss = LossReport{1, 2, 0.5};
  const Message req = DktRequest{1, 2};
  const Message rcp = RcpReport{1, 64.0};
  EXPECT_EQ(wire_bytes(loss), 64u);
  EXPECT_EQ(wire_bytes(req), 64u);
  EXPECT_EQ(wire_bytes(rcp), 64u);
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

TEST(Codec, LargeRandomUpdateRoundTrip) {
  common::Rng rng(6);
  GradientUpdate u;
  u.from = 0;
  u.iteration = 1;
  u.lbs = 16;
  for (std::uint32_t v = 0; v < 5; ++v) {
    VariableGrad vg;
    vg.var_index = v;
    vg.dense_size = 1000;
    std::vector<std::uint32_t> indices;
    std::vector<float> values;
    for (std::uint32_t i = 0; i < 1000; i += 7) {
      indices.push_back(i);
      values.push_back(static_cast<float>(rng.normal()));
    }
    vg.indices = indices;
    vg.values = values;
    u.vars.push_back(std::move(vg));
  }
  const GradientUpdate d = decode_gradient_update(encode(u));
  ASSERT_EQ(d.vars.size(), 5u);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_EQ(d.vars[v].indices, u.vars[v].indices);
    EXPECT_EQ(d.vars[v].values, u.vars[v].values);
  }
}

// --- ModelPublish (tag 10): a valid wire tag the decoder must handle ----

ModelPublish sample_publish() {
  ModelPublish p;
  p.from = 2;
  p.version = 7;
  p.iteration = 4242;
  p.first_var = 1;
  p.total_vars = 4;
  p.weights.parts.emplace_back(std::vector<float>{1.0f, 2.0f, 3.0f});
  p.weights.parts.emplace_back(std::vector<float>{-4.0f, 0.5f});
  return p;
}

TEST(Codec, ModelPublishEnvelopeRoundTrip) {
  const Message m = sample_publish();
  const auto buf = encode_message(m);
  EXPECT_EQ(buf[0], 10u);  // stable wire tag
  const Message d = decode_message(buf);
  const auto* p = std::get_if<ModelPublish>(&d);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->from, 2u);
  EXPECT_EQ(p->version, 7u);
  EXPECT_EQ(p->iteration, 4242u);
  EXPECT_EQ(p->first_var, 1u);
  EXPECT_EQ(p->total_vars, 4u);
  ASSERT_EQ(p->weights.parts.size(), 2u);
  EXPECT_FLOAT_EQ(p->weights.parts[0][2], 3.0f);
  EXPECT_FLOAT_EQ(p->weights.parts[1][1], 0.5f);
  EXPECT_EQ(encode_message(d), buf);
}

TEST(Codec, ModelPublishIsDataLaneAndWireBytesMatch) {
  const ModelPublish p = sample_publish();
  // Data message: charged its actual payload; the envelope adds one tag
  // byte (same accounting as BootstrapChunk / WeightSnapshot).
  EXPECT_FALSE(is_control(Message(p)));
  EXPECT_EQ(encode_message(Message(p)).size(),
            static_cast<std::size_t>(wire_bytes(p)) + 1);
  EXPECT_EQ(wire_bytes(Message(p)), wire_bytes(p));
}

TEST(Codec, ModelPublishEveryTruncationPointThrowsTyped) {
  const auto full = encode_message(Message(sample_publish()));
  for (std::size_t n = 1; n < full.size(); ++n) {
    std::vector<std::uint8_t> buf(full.begin(), full.begin() + n);
    EXPECT_THROW(decode_message(buf), DecodeError) << "cut at " << n;
  }
}

TEST(Codec, ModelPublishTrailingBytesThrow) {
  auto buf = encode_message(Message(sample_publish()));
  buf.push_back(0);
  EXPECT_EQ(decode_failure_kind([&] { decode_message(buf); }),
            DecodeErrorKind::kTrailingBytes);
}

TEST(Codec, ModelPublishOversizedTensorCountRejectedBeforeAllocation) {
  ModelPublish p;
  p.total_vars = 4;
  auto buf = encode_message(Message(p));  // tag + 32-byte header, no tensors
  ASSERT_EQ(buf.size(), 33u);
  buf[29] = 0xff;  // tensor-count field (little-endian u32 at offset 29)
  buf[30] = 0xff;
  buf[31] = 0xff;
  buf[32] = 0xff;
  EXPECT_EQ(decode_failure_kind([&] { decode_message(buf); }),
            DecodeErrorKind::kOversizedCount);
}

TEST(Codec, ModelPublishRangePastTotalVarsThrows) {
  // A chunk whose [first_var, first_var + nvars) range sticks out past
  // total_vars can never be applied; the decoder rejects it up front.
  ModelPublish p = sample_publish();
  p.first_var = 3;  // 3 + 2 tensors > total_vars 4
  const auto buf = encode_message(Message(p));
  EXPECT_EQ(decode_failure_kind([&] { decode_message(buf); }),
            DecodeErrorKind::kBadValue);
}

}  // namespace
}  // namespace dlion::comm
