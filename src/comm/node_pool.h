// Recycling node pool for the message path (DESIGN.md "Zero-copy data
// plane").
//
// Every gradient exchange builds the same few objects per message: the
// shared message node the fabric hands to the network, and the buffer of
// the update's variable list. Both come from this pool, so a warmed
// generate -> send -> deliver cycle never calls the allocator.
//
//  * NodePool - per-thread free lists, one per 16-byte size class up to
//    kMaxPooledBytes (larger requests go straight to operator new). Nodes
//    are carved from 64 KiB chunks mapped from the OS outside the malloc
//    heap, so they never fragment it. A freed node joins the free list of
//    the thread that frees it, so a thread's pool holds at most the most
//    nodes of a class it had in use at once, rounded up to whole chunks.
//    Chunks are never unmapped (a node may be freed on any thread); a
//    thread's free lists are dropped when it exits.
//  * PoolAllocator<T> - a stateless standard allocator over the calling
//    thread's pool: `std::allocate_shared` with it puts a message and its
//    control block in one pooled node, and `VarList` uses it for its
//    buffer.
//
// Under AddressSanitizer a node on a free list is poisoned, so touching a
// recycled node before the pool hands it out again still reports as a use
// after free.
#pragma once

#include <cstddef>
#include <new>

namespace dlion::comm {

class NodePool {
 public:
  /// Requests above this many bytes bypass the pool.
  static constexpr std::size_t kMaxPooledBytes = 16 * 1024;
  /// Size-class granularity (operator new's alignment guarantee).
  static constexpr std::size_t kGranularity = 16;

  /// A node of at least `bytes` bytes, aligned like operator new.
  static void* allocate(std::size_t bytes);
  /// Return a node that allocate(`bytes`) produced, on any thread.
  static void deallocate(void* p, std::size_t bytes) noexcept;

  /// Nodes on the calling thread's free lists (tests, diagnostics).
  static std::size_t free_nodes();
};

template <typename T>
struct PoolAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "NodePool nodes carry operator new's alignment only");
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(NodePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    NodePool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const PoolAllocator&, const PoolAllocator<U>&) {
    return true;
  }
};

}  // namespace dlion::comm
