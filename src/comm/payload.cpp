#include "comm/payload.h"

#include <algorithm>

namespace dlion::comm {

namespace {

std::atomic<std::uint64_t> g_copy_count{0};
std::atomic<std::uint64_t> g_copy_bytes{0};

std::size_t round_up(std::size_t bytes) {
  return (bytes + detail::PayloadBlock::kAlignment - 1) &
         ~(detail::PayloadBlock::kAlignment - 1);
}

}  // namespace

namespace detail {

void note_payload_copy(std::size_t bytes) {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  g_copy_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::shared_ptr<PayloadBlock> make_block(std::size_t bytes) {
  auto block = std::make_shared<PayloadBlock>();
  const std::size_t capacity = round_up(bytes == 0 ? 1 : bytes);
  block->data.reset(new (std::align_val_t(PayloadBlock::kAlignment))
                        std::byte[capacity]);
  block->capacity = capacity;
  return block;
}

}  // namespace detail

std::uint64_t payload_copy_count() {
  return g_copy_count.load(std::memory_order_relaxed);
}

std::uint64_t payload_copy_bytes() {
  return g_copy_bytes.load(std::memory_order_relaxed);
}

PayloadHandle PayloadArena::acquire(std::size_t min_bytes) {
  DLION_AFFINITY_DCHECK(affinity_);
  // Deterministic index-order scan for an unpinned block that fits. The
  // arena's own handle is the one remaining owner of a recyclable block, so
  // use_count() == 1 means no Payload or writer holds it. All messaging
  // runs on the simulation thread; there is no concurrent owner that could
  // race this check.
  for (auto& block : blocks_) {
    if (block.use_count() == 1 && block->capacity >= min_bytes) {
      block->used = 0;
      ++block->generation;
      return block;
    }
  }
  // Size new blocks by demand, never by doubling the previous block: a
  // consumer that legitimately retains messages (a test harness inbox)
  // pins blocks indefinitely, and demand-doubling would turn
  // every pinned block into exponential growth. Linear-in-retention is the
  // worst case here; recycling keeps the steady state at O(1) blocks.
  const std::size_t size = std::max(kMinBlockBytes, round_up(min_bytes));
  blocks_.push_back(detail::make_block(size));
  return blocks_.back();
}

std::size_t PayloadArena::pinned_blocks() const {
  std::size_t n = 0;
  for (const auto& block : blocks_) {
    if (block.use_count() > 1) ++n;
  }
  return n;
}

std::size_t PayloadArena::capacity_bytes() const {
  std::size_t total = 0;
  for (const auto& block : blocks_) total += block->capacity;
  return total;
}

std::byte* PayloadWriter::reserve(std::size_t bytes, std::size_t align) {
  if (block_ != nullptr) {
    std::size_t off = block_->used;
    off = (off + align - 1) & ~(align - 1);
    if (off + bytes <= block_->capacity) {
      staged_offset_ = off;
      block_->used = off;  // cursor advances at commit()
      return block_->data.get() + off;
    }
  }
  std::size_t want = hint_bytes_;
  if (want < bytes) want = bytes;
  block_ = arena_->acquire(want);
  staged_offset_ = 0;
  return block_->data.get();
}

}  // namespace dlion::comm
