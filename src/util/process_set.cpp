#include "util/process_set.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>

namespace nucon::detail {
namespace {

/// Blocks per slab: 64 blocks of 128 bytes, one 8 KB allocation.
constexpr std::size_t kBlocksPerSlab = 64;
constexpr std::size_t kBlockBytes = sizeof(std::uint64_t) * kSetWords;
constexpr std::align_val_t kSlabAlign{64};

/// Process-wide store of free blocks. Blocks are never returned to the
/// allocator: a block may outlive the thread that carved it (a set moved
/// to another thread), so slabs stay for the life of the process and the
/// depot recycles what exiting threads leave behind.
struct HiDepot {
  std::mutex mu;
  std::vector<std::uint64_t*> free_list;
  std::vector<void*> slabs;  // keeps every slab reachable

  /// Adds a fresh zeroed slab's blocks to the free list. Caller holds `mu`.
  void carve() {
    void* slab = ::operator new(kBlocksPerSlab * kBlockBytes, kSlabAlign);
    std::memset(slab, 0, kBlocksPerSlab * kBlockBytes);
    slabs.push_back(slab);
    auto* words = static_cast<std::uint64_t*>(slab);
    for (std::size_t i = kBlocksPerSlab; i-- > 0;) {
      free_list.push_back(words + i * kSetWords);
    }
  }
};

/// Never destroyed, so blocks released during static destruction (or by
/// threads outliving main) still have somewhere to go.
HiDepot& depot() {
  static HiDepot* d = new HiDepot();
  return *d;
}

}  // namespace

HiBlockPool::~HiBlockPool() {
  g_hi_pool_dead = true;
  HiDepot& d = depot();
  const std::lock_guard<std::mutex> lock(d.mu);
  d.free_list.insert(d.free_list.end(), free_list.begin(), free_list.end());
}

std::uint64_t* hi_acquire_slow() {
  HiDepot& d = depot();
  const std::lock_guard<std::mutex> lock(d.mu);
  if (d.free_list.empty()) d.carve();
  std::vector<std::uint64_t*>& from = d.free_list;
  if (g_hi_pool_dead) {
    std::uint64_t* b = from.back();
    from.pop_back();
    return b;
  }
  // Take up to a slab's worth, so the next acquires stay thread-local.
  std::vector<std::uint64_t*>& to = hi_pool().free_list;
  const std::size_t take = std::min(kBlocksPerSlab, from.size());
  to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(take),
            from.end());
  from.resize(from.size() - take);
  std::uint64_t* b = to.back();
  to.pop_back();
  return b;
}

void hi_release_to_depot(std::uint64_t* b) {
  HiDepot& d = depot();
  const std::lock_guard<std::mutex> lock(d.mu);
  d.free_list.push_back(b);
}

}  // namespace nucon::detail
