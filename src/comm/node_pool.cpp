#include "comm/node_pool.h"

#include <sys/mman.h>

#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DLION_NODE_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DLION_NODE_POOL_ASAN 1
#endif
#endif

#if defined(DLION_NODE_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace dlion::comm {

namespace {

constexpr std::size_t kChunkBytes = 64 * 1024;

/// Size class of a request: its size in kGranularity steps (a node of
/// class c holds c * kGranularity bytes).
std::size_t size_class(std::size_t bytes) {
  const std::size_t c =
      (bytes + NodePool::kGranularity - 1) / NodePool::kGranularity;
  return c == 0 ? 1 : c;
}

/// Fresh zeroed memory straight from the OS, never returned. Nodes are
/// carved from such chunks rather than taken from operator new: nodes that
/// live as long as the pool, scattered through the malloc heap between its
/// transient blocks, kept the heap from shrinking back and raised the
/// figure workloads' peak RSS by 14-19%. A chunk is never unmapped because
/// a node may be freed on any thread, into that thread's lists.
void* map_chunk(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

/// Set once the calling thread's FreeLists is destroyed (thread exit):
/// later requests on that thread are served by single-node chunks and
/// frees are dropped. Trivially destructible, so it stays readable to the
/// very end.
thread_local bool t_lists_gone = false;

class FreeLists {
 public:
  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  /// The listed nodes stay in their chunks, which outlive every thread.
  ~FreeLists() { t_lists_gone = true; }

  void* pop(std::size_t c) {
    if (c >= lists_.size()) lists_.resize(c + 1);
    std::vector<void*>& list = lists_[c];
    const std::size_t bytes = c * NodePool::kGranularity;
    if (list.empty()) {
      // Carve a new chunk; its first node is handed out below.
      const std::size_t n = kChunkBytes / bytes;
      auto* chunk = static_cast<char*>(map_chunk(n * bytes));
      list.reserve(list.size() + n);
      for (std::size_t i = n; i-- > 0;) {
        list.push_back(chunk + i * bytes);
        ASAN_POISON_MEMORY_REGION(chunk + i * bytes, bytes);
      }
    }
    void* p = list.back();
    list.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
  }

  void push(void* p, std::size_t c) {
    if (c >= lists_.size()) lists_.resize(c + 1);
    lists_[c].push_back(p);
    ASAN_POISON_MEMORY_REGION(p, c * NodePool::kGranularity);
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& list : lists_) n += list.size();
    return n;
  }

 private:
  std::vector<std::vector<void*>> lists_;  // index = size class
};

thread_local FreeLists t_lists;

}  // namespace

void* NodePool::allocate(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return ::operator new(bytes);
  if (t_lists_gone) return map_chunk(size_class(bytes) * kGranularity);
  return t_lists.pop(size_class(bytes));
}

void NodePool::deallocate(void* p, std::size_t bytes) noexcept {
  if (bytes > kMaxPooledBytes) {
    ::operator delete(p);
    return;
  }
  if (t_lists_gone) return;  // its chunk stays mapped
  try {
    t_lists.push(p, size_class(bytes));
  } catch (const std::bad_alloc&) {
    // Unlisted, so never reused.
    ASAN_POISON_MEMORY_REGION(p, size_class(bytes) * kGranularity);
  }
}

std::size_t NodePool::free_nodes() {
  return t_lists_gone ? 0 : t_lists.size();
}

}  // namespace dlion::comm
