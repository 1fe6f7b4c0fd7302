// Tests for the zero-copy payload substrate (comm/payload.h): view
// semantics, refcounted pinning, deterministic arena recycling, writer
// stage/commit packing, and the payload-copy accounting that the perf-smoke
// gate asserts on.

#include "comm/payload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace dlion::comm {
namespace {

/// Copy-counter deltas around a scope, so tests compose regardless of what
/// other tests (or fixtures) did to the global counters.
struct CopyDelta {
  std::uint64_t count0 = payload_copy_count();
  std::uint64_t bytes0 = payload_copy_bytes();
  std::uint64_t count() const { return payload_copy_count() - count0; }
  std::uint64_t bytes() const { return payload_copy_bytes() - bytes0; }
};

TEST(Payload, DefaultIsEmptyAndUnpinned) {
  Payload<float> p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.pin(), nullptr);
  EXPECT_EQ(p.span().size(), 0u);
}

TEST(Payload, WriterCopyIsProductionWriteNotCountedCopy) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  std::vector<float> src(100);
  std::iota(src.begin(), src.end(), 0.0f);
  CopyDelta d;
  Payload<float> p = writer.copy(std::span<const float>(src));
  EXPECT_EQ(d.count(), 0u) << "production writes must not count as copies";
  ASSERT_EQ(p.size(), src.size());
  EXPECT_TRUE(p == src);
}

TEST(Payload, CopyingAViewIsAnIncrefNotACopy) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  std::vector<float> src = {1.0f, 2.0f, 3.0f};
  Payload<float> p = writer.copy(std::span<const float>(src));
  const long before = p.pin().use_count();
  CopyDelta d;
  Payload<float> q = p;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(q.pin().use_count(), before + 1);
  EXPECT_EQ(q.data(), p.data()) << "views share the same bytes";
}

TEST(Payload, MaterializingConstructorsAreCountedCopies) {
  CopyDelta d;
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  Payload<float> from_vector(v);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.bytes(), v.size() * sizeof(float));
  Payload<float> from_init = {5.0f, 6.0f};
  EXPECT_EQ(d.count(), 2u);
  EXPECT_EQ(d.bytes(), (v.size() + 2) * sizeof(float));
  EXPECT_TRUE(from_vector == v);
  EXPECT_EQ(from_init.size(), 2u);
}

TEST(Payload, MakePayloadIsUncountedProductionWrite) {
  std::vector<std::uint32_t> src = {3, 1, 4, 1, 5};
  CopyDelta d;
  Payload<std::uint32_t> p =
      make_payload(std::span<const std::uint32_t>(src));
  EXPECT_EQ(d.count(), 0u);
  EXPECT_TRUE(p == src);
  EXPECT_NE(p.pin(), nullptr) << "standalone block keeps the view alive";
}

TEST(PayloadArena, RecyclesUnpinnedBlockInIndexOrder) {
  PayloadArena arena;
  PayloadHandle first = arena.acquire(64);
  const std::uint64_t gen0 = first->generation;
  detail::PayloadBlock* raw = first.get();
  first.reset();  // drop the only non-arena owner
  PayloadHandle again = arena.acquire(64);
  EXPECT_EQ(again.get(), raw) << "unpinned block must be recycled";
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_EQ(again->generation, gen0 + 1) << "recycle bumps the generation";
  EXPECT_EQ(again->used, 0u);
}

TEST(PayloadArena, PinnedBlockIsNeverRecycled) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  std::vector<float> src(16, 1.5f);
  Payload<float> view = writer.copy(std::span<const float>(src));
  // The view (and the writer) pin block 0: a fresh acquire must grow.
  PayloadHandle other = arena.acquire(64);
  EXPECT_EQ(arena.blocks(), 2u);
  EXPECT_NE(other.get(), view.pin().get());
  EXPECT_EQ(arena.pinned_blocks(), 2u);
  // The pinned view still reads its original bytes.
  EXPECT_TRUE(view == src);
}

TEST(PayloadArena, GrowthIsDemandSizedNotDoubling) {
  PayloadArena arena;
  // Pin every block as it is handed out, forcing growth each time - the
  // pathological retention pattern (dead-letter queue, test inboxes).
  std::vector<PayloadHandle> pinned;
  for (int i = 0; i < 8; ++i) pinned.push_back(arena.acquire(64));
  EXPECT_EQ(arena.blocks(), 8u);
  EXPECT_EQ(arena.capacity_bytes(), 8 * PayloadArena::kMinBlockBytes)
      << "retained blocks must cost linear, not exponential, memory";
}

TEST(PayloadArena, OversizedRequestGetsExactBlock) {
  PayloadArena arena;
  const std::size_t big = 3 * PayloadArena::kMinBlockBytes + 7;
  PayloadHandle block = arena.acquire(big);
  EXPECT_GE(block->capacity, big);
  EXPECT_LT(block->capacity, 2 * big) << "demand-sized, not doubled";
}

TEST(PayloadWriter, PacksMultiplePayloadsIntoOneBlock) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  std::vector<std::uint32_t> idx = {1, 2, 3};
  std::vector<float> vals = {0.5f, -1.0f, 2.0f};
  Payload<std::uint32_t> pi = writer.copy(std::span<const std::uint32_t>(idx));
  Payload<float> pv = writer.copy(std::span<const float>(vals));
  EXPECT_EQ(pi.pin().get(), pv.pin().get())
      << "small payloads share one block";
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_TRUE(pi == idx);
  EXPECT_TRUE(pv == vals);
}

TEST(PayloadWriter, CommitShrinksToFinalCountAndReclaimsTail) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  float* staged = writer.stage<float>(1000);
  staged[0] = 7.0f;
  staged[1] = 8.0f;
  Payload<float> p = writer.commit(staged, 2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 7.0f);
  EXPECT_EQ(p[1], 8.0f);
  // The reclaimed tail serves the next payload from the same block.
  std::vector<float> more(500, 1.0f);
  Payload<float> q = writer.copy(std::span<const float>(more));
  EXPECT_EQ(q.pin().get(), p.pin().get());
  EXPECT_EQ(arena.blocks(), 1u);
}

TEST(PayloadWriter, PayloadNeverStraddlesBlocks) {
  PayloadArena arena;
  PayloadWriter writer(arena);
  const std::size_t elems = PayloadArena::kMinBlockBytes / sizeof(float);
  // Fill most of block 0, then stage something the remainder cannot hold.
  std::vector<float> bulk(elems - 8, 0.25f);
  Payload<float> a = writer.copy(std::span<const float>(bulk));
  std::vector<float> tail(64, 0.75f);
  Payload<float> b = writer.copy(std::span<const float>(tail));
  EXPECT_NE(a.pin().get(), b.pin().get())
      << "a payload that does not fit starts a fresh block";
  EXPECT_TRUE(b == tail);
  EXPECT_TRUE(a == bulk);
}

TEST(PayloadWriter, HintSizesTheFirstAcquisition) {
  PayloadArena arena;
  const std::size_t hint = 4 * PayloadArena::kMinBlockBytes;
  PayloadWriter writer(arena, hint);
  std::vector<float> small(4, 1.0f);
  Payload<float> p = writer.copy(std::span<const float>(small));
  EXPECT_GE(p.pin()->capacity, hint)
      << "the hint pre-sizes the block so later payloads pack into it";
}

TEST(WeightPayload, NumValuesSumsParts) {
  WeightPayload w;
  EXPECT_EQ(w.num_values(), 0u);
  w.parts.emplace_back(std::vector<float>{1, 2, 3});
  w.parts.emplace_back(std::vector<float>{4, 5});
  w.parts.emplace_back(std::vector<float>{});
  EXPECT_EQ(w.num_values(), 5u);
}

TEST(PayloadArena, RecycledBlockServesNewViewsWithFreshGeneration) {
  PayloadArena arena;
  std::uint64_t gen_before = 0;
  {
    PayloadWriter writer(arena);
    std::vector<float> src = {1.0f, 2.0f};
    Payload<float> p = writer.copy(std::span<const float>(src));
    gen_before = p.generation();
  }  // all pins dropped: block 0 is recyclable
  PayloadWriter writer(arena);
  std::vector<float> src = {9.0f};
  Payload<float> q = writer.copy(std::span<const float>(src));
  EXPECT_EQ(arena.blocks(), 1u) << "the block was recycled, not regrown";
  EXPECT_EQ(q.generation(), gen_before + 1);
  EXPECT_EQ(q[0], 9.0f);
}

}  // namespace
}  // namespace dlion::comm
