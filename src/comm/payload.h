// Zero-copy data-plane payloads (DESIGN.md "Zero-copy data plane").
//
// Data-lane messages (gradients and weight snapshots) carry *views* into
// refcounted arena blocks instead of owned vectors. The building blocks:
//
//  * PayloadArena - a pool of refcounted, 64-byte-aligned, grow-only blocks
//    (the `common/scratch.h` block shape plus refcounting). A block is
//    recycled only when no Payload pins it, so in-flight messages keep
//    their backing storage alive by construction: a dangling view is
//    impossible. Recycling scans blocks in index order, so reuse is
//    deterministic for a deterministic message schedule.
//
//  * Payload<T> - an immutable view {data, size, generation} plus the
//    shared handle that pins its block. Copying a Payload is an atomic
//    incref: no allocation, no data copy. `generation` is the block's reuse
//    counter captured at creation; debug builds check it on access, so a
//    view that somehow outlived a recycle fails loudly instead of reading
//    someone else's bytes.
//
//  * PayloadWriter - the single *production write* of a payload's bytes:
//    stage scratch space in an arena block, fill it, commit the final
//    element count. One writer packs any number of payloads; a payload
//    never straddles blocks (the writer acquires a fresh block when the
//    current one cannot fit the next stage).
//
// Copy accounting: producing bytes through a writer is not a copy - it is
// the first materialization of that payload. Duplicating bytes that already
// exist (Payload construction from an owned vector or initializer list)
// increments the global payload-copy counters below; the hot data path must
// keep them flat (bench/hotpath's "comm" section and exit status).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/thread_affinity.h"

namespace dlion::comm {

namespace detail {

/// One refcounted arena block. `generation` counts recycles; Payloads
/// capture it at creation so stale views are detectable in debug builds.
struct PayloadBlock {
  static constexpr std::size_t kAlignment = 64;

  struct AlignedByteDelete {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t(kAlignment));
    }
  };

  std::unique_ptr<std::byte[], AlignedByteDelete> data;
  std::size_t capacity = 0;  ///< bytes
  std::size_t used = 0;      ///< bump cursor (bytes)
  std::uint64_t generation = 0;
};

/// Global payload-copy counters (see file comment). Atomic so sanitizer
/// builds with a live GEMM pool stay race-free; relaxed - these are
/// counters, not synchronization.
void note_payload_copy(std::size_t bytes);

/// Freshly allocated block of exactly `bytes` capacity (rounded up to the
/// alignment), outside any arena - used by the materializing Payload
/// constructors and make_payload.
std::shared_ptr<PayloadBlock> make_block(std::size_t bytes);

}  // namespace detail

using PayloadHandle = std::shared_ptr<detail::PayloadBlock>;

/// Payload copies performed since process start / the last difference the
/// caller took. Production writes through a PayloadWriter do not count.
std::uint64_t payload_copy_count();
std::uint64_t payload_copy_bytes();

/// Immutable refcounted view of `size` elements of T. Copying is an atomic
/// incref; the viewed block cannot be recycled while any view pins it.
template <typename T>
class Payload {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Payload() = default;

  /// View over [data, data + size) inside the block `pin` holds. The
  /// normal way to obtain one is PayloadWriter::commit/copy.
  Payload(const T* data, std::size_t size, PayloadHandle pin)
      : data_(data),
        size_(static_cast<std::uint32_t>(size)),
        generation_(pin != nullptr ? pin->generation : 0),
        pin_(std::move(pin)) {}

  /// Materializing constructors: allocate an exact-size self-owned block
  /// and duplicate the elements into it. Counted as payload copies - test
  /// convenience, not the hot path.
  Payload(std::initializer_list<T> init)
      : Payload(init.begin(), init.size(), kMaterialize) {}
  Payload(const std::vector<T>& v)  // NOLINT(google-explicit-constructor)
      : Payload(v.data(), v.size(), kMaterialize) {}
  Payload& operator=(const std::vector<T>& v) {
    return *this = Payload(v);
  }
  Payload& operator=(std::initializer_list<T> init) {
    return *this = Payload(init);
  }

  Payload(const Payload&) = default;
  Payload(Payload&&) noexcept = default;
  Payload& operator=(const Payload&) = default;
  Payload& operator=(Payload&&) noexcept = default;

  std::span<const T> span() const {
    check_generation();
    return {data_, size_};
  }
  const T* data() const {
    check_generation();
    return data_;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    DLION_DCHECK(i < size_);
    check_generation();
    return data_[i];
  }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  /// Block reuse counter captured at creation (0 for detached payloads).
  std::uint64_t generation() const { return generation_; }
  const PayloadHandle& pin() const { return pin_; }

  friend bool operator==(const Payload& a, const Payload& b) {
    if (a.size() != b.size()) return false;
    if (a.size() == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }
  friend bool operator==(const Payload& a, const std::vector<T>& b) {
    if (a.size() != b.size()) return false;
    if (a.size() == 0) return true;
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }
  friend bool operator==(const std::vector<T>& a, const Payload& b) {
    return b == a;
  }

 private:
  struct MaterializeTag {};
  static constexpr MaterializeTag kMaterialize{};

  Payload(const T* src, std::size_t size, MaterializeTag) {
    size_ = static_cast<std::uint32_t>(size);
    if (size == 0) return;
    pin_ = detail::make_block(size * sizeof(T));
    std::memcpy(pin_->data.get(), src, size * sizeof(T));
    pin_->used = size * sizeof(T);
    data_ = reinterpret_cast<const T*>(pin_->data.get());
    generation_ = pin_->generation;
    detail::note_payload_copy(size * sizeof(T));
  }

  void check_generation() const {
    DLION_DCHECK(pin_ == nullptr || generation_ == pin_->generation,
                 "payload view outlived its block's recycle");
  }

  const T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint64_t generation_ = 0;
  PayloadHandle pin_;
};

/// Production write into a fresh standalone exact-size block, outside any
/// arena - for producers without an arena in reach (gradient-selection
/// compatibility entry points, tests). Like PayloadWriter::copy this is the
/// payload's first materialization, not a counted copy.
template <typename T>
Payload<T> make_payload(std::span<const T> src) {
  if (src.empty()) return {};
  PayloadHandle block = detail::make_block(src.size() * sizeof(T));
  std::memcpy(block->data.get(), src.data(), src.size() * sizeof(T));
  block->used = src.size() * sizeof(T);
  const T* data = reinterpret_cast<const T*>(block->data.get());
  return Payload<T>(data, src.size(), std::move(block));
}

/// Weight-bearing payload: one Payload per weight variable (the wire format
/// only needs per-part sizes, so parts replace nn::Snapshot tensors on the
/// data lane 1:1).
struct WeightPayload {
  std::vector<Payload<float>> parts;

  std::size_t num_values() const {
    std::size_t n = 0;
    for (const auto& p : parts) n += p.size();
    return n;
  }
};

/// Pool of refcounted blocks. acquire() recycles the first block (index
/// order - deterministic) whose only owner is the arena, or grows.
class PayloadArena {
 public:
  static constexpr std::size_t kMinBlockBytes = 1 << 16;  // 64 KiB

  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  /// A block with at least `min_bytes` free capacity and `used` reset to 0.
  /// Recycling bumps the block's generation, invalidating (detectably) any
  /// stale view that failed to pin it.
  PayloadHandle acquire(std::size_t min_bytes);

  std::size_t blocks() const { return blocks_.size(); }
  /// Blocks currently pinned by at least one live Payload or writer.
  std::size_t pinned_blocks() const;
  std::size_t capacity_bytes() const;

 private:
  /// Block acquisition/recycling is single-threaded by contract (Payload
  /// *copies* are thread-safe atomic increfs; the arena itself is not).
  /// Checked in debug/sanitize builds.
  common::ThreadAffinity affinity_;
  std::vector<PayloadHandle> blocks_;
};

/// Packs payload production writes into arena blocks. Not thread-safe (all
/// messaging happens on the simulation thread).
class PayloadWriter {
 public:
  /// `hint_bytes` sizes the first block acquisition; larger payloads simply
  /// acquire larger blocks as needed.
  explicit PayloadWriter(PayloadArena& arena,
                         std::size_t hint_bytes = PayloadArena::kMinBlockBytes)
      : arena_(&arena), hint_bytes_(hint_bytes) {}

  /// Mutable staging region for up to `max_elems` elements. Fill it, then
  /// seal with commit(). stage/commit calls pair up strictly.
  template <typename T>
  T* stage(std::size_t max_elems) {
    DLION_DCHECK(staged_bytes_ == 0, "stage() without matching commit()");
    const std::size_t bytes = max_elems * sizeof(T);
    std::byte* p = reserve(bytes, alignof(T));
    staged_bytes_ = bytes;
    return reinterpret_cast<T*>(p);
  }

  /// Seal the staged region at its final element count (<= the staged
  /// maximum); the unused tail is reclaimed for the next stage.
  template <typename T>
  Payload<T> commit(T* staged, std::size_t count) {
    DLION_DCHECK(staged != nullptr || count == 0);
    DLION_DCHECK(block_ != nullptr);
    DLION_DCHECK(reinterpret_cast<std::byte*>(staged) ==
                     block_->data.get() + staged_offset_,
                 "commit() pointer is not the last stage()");
    DLION_DCHECK(count * sizeof(T) <= staged_bytes_,
                 "commit() larger than staged");
    block_->used = staged_offset_ + count * sizeof(T);
    staged_bytes_ = 0;
    return Payload<T>(staged, count, block_);
  }

  /// Production write of an existing span: stage + memcpy + commit. This is
  /// the one-time materialization of a payload, not a counted copy.
  template <typename T>
  Payload<T> copy(std::span<const T> src) {
    T* p = stage<T>(src.size());
    if (!src.empty()) std::memcpy(p, src.data(), src.size() * sizeof(T));
    return commit(p, src.size());
  }

 private:
  /// Cursor into the current block, aligned to `align`, with `bytes` free -
  /// acquiring a fresh block when the current one cannot fit.
  std::byte* reserve(std::size_t bytes, std::size_t align);

  PayloadArena* arena_;
  std::size_t hint_bytes_;
  PayloadHandle block_;
  std::size_t staged_offset_ = 0;
  std::size_t staged_bytes_ = 0;
};

}  // namespace dlion::comm
