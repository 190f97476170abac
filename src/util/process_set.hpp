// ProcessSet: a value-type set of process identifiers, the universal currency
// of quorum-based reasoning in this library.
//
// The paper's system has n processes Pi = {0, .., n-1}; a set of processes is
// a bitset so that the hot operations of the distrust machinery (intersection
// tests between quorums in quorum histories) are word-wise AND instructions.
//
// Storage layout: one inline 64-bit word (`lo_`, pids 0..63) plus an optional
// heap block (`hi_`) for pids 64..kMaxProcesses-1. A null `hi_` means "all
// high words are zero". Runs with n <= 64 — every paper experiment — never
// touch the heap: the fast paths are a single predictable `hi_ == nullptr`
// test away from the old one-word code.
//
// A block is kSetWords words. Word 0 holds the block's extent e: only the
// high words 1..e may be nonzero, and every word past e is zero. Words 1..
// kHiWords hold the set's words of the same index, so word i of a set is
// block[i]. Every loop stops at the extent, so a set at n=128 walks one high
// word, not kHiWords, whatever kMaxProcesses is. The extent is an upper
// bound: erase and &= may leave zero words below it.
//
// Blocks are carved from 64-byte-aligned slabs and recycled through a
// thread-local free list (slow paths in util/process_set.cpp), so per-step
// transients (quorum copies, scratch sets) do not hit the allocator at
// n > 64. A block goes back to the list zeroed, so acquiring one writes
// nothing.
#pragma once

#include <cassert>
#include <algorithm>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

namespace nucon {

/// Process identifier. Processes are numbered 0 .. n-1.
using Pid = std::int32_t;

/// Maximum number of processes supported by the bitset representation.
inline constexpr Pid kMaxProcesses = 1024;

namespace detail {

/// 64-bit words per set, and the high words a heap block can hold (all but
/// the inline word). A block is kSetWords words: the extent, then the
/// kHiWords high words.
inline constexpr int kSetWords = kMaxProcesses / 64;
inline constexpr int kHiWords = kSetWords - 1;

/// The block a set without one reads through: extent 0, all words zero.
/// Lets the word loops index both operands without a null test.
inline constexpr std::uint64_t kZeroBlock[kSetWords] = {};

/// Set once the thread's block pool has been destroyed (thread exit).
/// Trivially destructible, so it stays readable after TLS teardown and
/// acquire/release can go to the process-wide depot directly.
inline thread_local bool g_hi_pool_dead = false;

struct HiBlockPool {
  std::vector<std::uint64_t*> free_list;
  /// Hands the free list to the process-wide depot: blocks live in shared
  /// slabs and may have been acquired on another thread.
  ~HiBlockPool();
};

inline HiBlockPool& hi_pool() {
  static thread_local HiBlockPool pool;
  return pool;
}

/// Slow paths (util/process_set.cpp): refill this thread's empty free list
/// from the depot, carving a new slab when the depot is empty too, and
/// return one block; and hand one block to the depot after thread exit.
[[nodiscard]] std::uint64_t* hi_acquire_slow();
void hi_release_to_depot(std::uint64_t* b);

/// An all-zero block (extent 0).
inline std::uint64_t* hi_acquire() {
  if (!g_hi_pool_dead) {
    std::vector<std::uint64_t*>& free_list = hi_pool().free_list;
    if (!free_list.empty()) {
      std::uint64_t* b = free_list.back();
      free_list.pop_back();
      return b;
    }
  }
  return hi_acquire_slow();
}

/// `b` must be all zero again, extent included.
inline void hi_release(std::uint64_t* b) {
  if (g_hi_pool_dead) {
    hi_release_to_depot(b);
    return;
  }
  hi_pool().free_list.push_back(b);
}

}  // namespace detail

/// An immutable-style value type holding a set of process ids.
class ProcessSet {
 public:
  constexpr ProcessSet() = default;

  constexpr ProcessSet(std::initializer_list<Pid> pids) {
    for (Pid p : pids) insert(p);
  }

  constexpr ProcessSet(const ProcessSet& o) : lo_(o.lo_) {
    if (o.hi_ != nullptr) {
      hi_ = alloc_hi();
      assign_hi(o.hi_);
    }
  }

  constexpr ProcessSet(ProcessSet&& o) noexcept : lo_(o.lo_), hi_(o.hi_) {
    o.lo_ = 0;
    o.hi_ = nullptr;
  }

  constexpr ProcessSet& operator=(const ProcessSet& o) {
    if (this == &o) return *this;
    lo_ = o.lo_;
    if (o.hi_ == nullptr) {
      drop_hi();
    } else {
      if (hi_ == nullptr) hi_ = alloc_hi();
      assign_hi(o.hi_);
    }
    return *this;
  }

  constexpr ProcessSet& operator=(ProcessSet&& o) noexcept {
    if (this == &o) return *this;
    drop_hi();
    lo_ = o.lo_;
    hi_ = o.hi_;
    o.lo_ = 0;
    o.hi_ = nullptr;
    return *this;
  }

  constexpr ~ProcessSet() { drop_hi(); }

  /// The full set {0, .., n-1}.
  [[nodiscard]] static constexpr ProcessSet full(Pid n) {
    assert(n >= 0 && n <= kMaxProcesses);
    ProcessSet s;
    if (n <= 64) {
      s.lo_ = (n == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
      return s;
    }
    s.lo_ = ~std::uint64_t{0};
    s.hi_ = s.alloc_hi();
    const int last = (n - 1) / 64;  // highest word holding a member
    for (int i = 1; i < last; ++i) s.hi_[i] = ~std::uint64_t{0};
    s.hi_[last] = n % 64 == 0 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (n % 64)) - 1;
    s.hi_[0] = static_cast<std::uint64_t>(last);
    return s;
  }

  /// The singleton {p}.
  [[nodiscard]] static constexpr ProcessSet single(Pid p) {
    ProcessSet s;
    s.insert(p);
    return s;
  }

  /// A set from a raw 64-bit mask (bit i set <=> process i in the set).
  /// Only spans pids 0..63; the wide codec paths use word()/set_word().
  [[nodiscard]] static constexpr ProcessSet from_mask(std::uint64_t mask) {
    ProcessSet s;
    s.lo_ = mask;
    return s;
  }

  /// The low 64 bits. Callers on the legacy <=64-process wire paths use this;
  /// it asserts the set has no members above pid 63.
  [[nodiscard]] constexpr std::uint64_t mask() const {
    assert(hi_zero());
    return lo_;
  }

  /// Word i of the bitset (pids 64*i .. 64*i+63); zero beyond the extent.
  [[nodiscard]] constexpr std::uint64_t word(int i) const {
    assert(i >= 0 && i < detail::kSetWords);
    return i == 0 ? lo_ : blk()[i];
  }

  /// Overwrites word i. Codec use (ByteReader::process_set).
  constexpr void set_word(int i, std::uint64_t w) {
    assert(i >= 0 && i < detail::kSetWords);
    if (i == 0) {
      lo_ = w;
      return;
    }
    if (w == 0 && hi_ == nullptr) return;
    if (hi_ == nullptr) hi_ = alloc_hi();
    hi_[i] = w;
    if (w != 0) grow_extent(i);
  }

  constexpr void insert(Pid p) {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) {
      lo_ |= std::uint64_t{1} << p;
      return;
    }
    if (hi_ == nullptr) hi_ = alloc_hi();
    hi_[p / 64] |= std::uint64_t{1} << (p % 64);
    grow_extent(p / 64);
  }

  constexpr void erase(Pid p) {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) {
      lo_ &= ~(std::uint64_t{1} << p);
      return;
    }
    if (hi_ != nullptr) hi_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
  }

  [[nodiscard]] constexpr bool contains(Pid p) const {
    assert(p >= 0 && p < kMaxProcesses);
    if (p < 64) return (lo_ >> p) & 1U;
    return (blk()[p / 64] >> (p % 64)) & 1U;
  }

  [[nodiscard]] constexpr bool empty() const {
    return lo_ == 0 && hi_zero();
  }

  [[nodiscard]] constexpr int size() const {
    int count = __builtin_popcountll(lo_);
    if (hi_ != nullptr) {
      for (int i = 1; i <= extent(hi_); ++i) {
        count += __builtin_popcountll(hi_[i]);
      }
    }
    return count;
  }

  [[nodiscard]] constexpr bool intersects(const ProcessSet& o) const {
    if ((lo_ & o.lo_) != 0) return true;
    if (hi_ == nullptr || o.hi_ == nullptr) return false;
    const int e = std::min(extent(hi_), extent(o.hi_));
    for (int i = 1; i <= e; ++i) {
      if ((hi_[i] & o.hi_[i]) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] constexpr bool is_subset_of(const ProcessSet& o) const {
    if ((lo_ & ~o.lo_) != 0) return false;
    if (hi_ == nullptr) return true;
    const std::uint64_t* b = o.blk();
    for (int i = 1; i <= extent(hi_); ++i) {
      if ((hi_[i] & ~b[i]) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] constexpr ProcessSet operator|(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ | o.lo_;
    if (hi_ != nullptr || o.hi_ != nullptr) {
      const std::uint64_t* a = blk();
      const std::uint64_t* b = o.blk();
      const int e = std::max(extent(a), extent(b));
      r.hi_ = r.alloc_hi();
      for (int i = 1; i <= e; ++i) r.hi_[i] = a[i] | b[i];
      r.hi_[0] = static_cast<std::uint64_t>(e);
    }
    return r;
  }
  [[nodiscard]] constexpr ProcessSet operator&(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ & o.lo_;
    if (hi_ != nullptr && o.hi_ != nullptr) {
      const int e = std::min(extent(hi_), extent(o.hi_));
      r.hi_ = r.alloc_hi();
      for (int i = 1; i <= e; ++i) r.hi_[i] = hi_[i] & o.hi_[i];
      r.hi_[0] = static_cast<std::uint64_t>(e);
    }
    return r;
  }
  /// Set difference: processes in *this but not in o.
  [[nodiscard]] constexpr ProcessSet operator-(const ProcessSet& o) const {
    ProcessSet r;
    r.lo_ = lo_ & ~o.lo_;
    if (hi_ != nullptr) {
      const std::uint64_t* b = o.blk();
      const int e = extent(hi_);
      r.hi_ = r.alloc_hi();
      for (int i = 1; i <= e; ++i) r.hi_[i] = hi_[i] & ~b[i];
      r.hi_[0] = static_cast<std::uint64_t>(e);
    }
    return r;
  }
  constexpr ProcessSet& operator|=(const ProcessSet& o) {
    lo_ |= o.lo_;
    if (o.hi_ != nullptr) {
      if (hi_ == nullptr) hi_ = alloc_hi();
      const int e = extent(o.hi_);
      for (int i = 1; i <= e; ++i) hi_[i] |= o.hi_[i];
      grow_extent(e);
    }
    return *this;
  }
  constexpr ProcessSet& operator&=(const ProcessSet& o) {
    lo_ &= o.lo_;
    if (hi_ != nullptr) {
      if (o.hi_ == nullptr) {
        drop_hi();
      } else {
        // Words of o past its extent are zero, so the loop clears ours
        // there and the extent can shrink to o's.
        const int e = extent(hi_);
        for (int i = 1; i <= e; ++i) hi_[i] &= o.hi_[i];
        hi_[0] = static_cast<std::uint64_t>(std::min(e, extent(o.hi_)));
      }
    }
    return *this;
  }

  /// Smallest pid in the set; the set must be nonempty.
  [[nodiscard]] constexpr Pid min() const {
    assert(!empty());
    if (lo_ != 0) return static_cast<Pid>(__builtin_ctzll(lo_));
    const std::uint64_t* a = blk();
    for (int i = 1; i <= extent(a); ++i) {
      if (a[i] != 0) return static_cast<Pid>(64 * i + __builtin_ctzll(a[i]));
    }
    return 0;  // unreachable
  }

  /// Largest pid in the set; the set must be nonempty.
  [[nodiscard]] constexpr Pid max() const {
    assert(!empty());
    if (hi_ != nullptr) {
      for (int i = extent(hi_); i >= 1; --i) {
        if (hi_[i] != 0) {
          return static_cast<Pid>(64 * i + 63 - __builtin_clzll(hi_[i]));
        }
      }
    }
    return static_cast<Pid>(63 - __builtin_clzll(lo_));
  }

  /// The k-th member (0-based) in increasing pid order; k must be < size().
  /// Word-skipping select keeps Rng::pick O(words) instead of O(members).
  [[nodiscard]] constexpr Pid nth(int k) const {
    assert(k >= 0 && k < size());
    const std::uint64_t* a = blk();
    for (int i = 0; i <= extent(a); ++i) {
      std::uint64_t w = i == 0 ? lo_ : a[i];
      const int pop = __builtin_popcountll(w);
      if (k >= pop) {
        k -= pop;
        continue;
      }
      for (int j = 0; j < k; ++j) w &= w - 1;  // drop the k lowest set bits
      return static_cast<Pid>(64 * i + __builtin_ctzll(w));
    }
    return 0;  // unreachable: k < size()
  }

  friend constexpr bool operator==(const ProcessSet& a, const ProcessSet& b) {
    if (a.lo_ != b.lo_) return false;
    if (a.hi_ == nullptr && b.hi_ == nullptr) return true;
    const std::uint64_t* x = a.blk();
    const std::uint64_t* y = b.blk();
    const int e = std::max(extent(x), extent(y));
    for (int i = 1; i <= e; ++i) {
      if (x[i] != y[i]) return false;
    }
    return true;
  }
  /// Orders by the infinite-precision bitset value, highest word first: for
  /// sets within pids 0..63 this is exactly the old one-word mask order, so
  /// sorted containers and codecs keyed on it keep their byte layouts.
  friend constexpr std::strong_ordering operator<=>(const ProcessSet& a,
                                                    const ProcessSet& b) {
    if (a.hi_ != nullptr || b.hi_ != nullptr) {
      const std::uint64_t* x = a.blk();
      const std::uint64_t* y = b.blk();
      for (int i = std::max(extent(x), extent(y)); i >= 1; --i) {
        if (x[i] != y[i]) return x[i] <=> y[i];
      }
    }
    return a.lo_ <=> b.lo_;
  }

  /// Iterates over the members in increasing pid order.
  class Iterator {
   public:
    constexpr Iterator(const std::uint64_t* blk, int last, int word,
                       std::uint64_t bits)
        : blk_(blk), last_(last), word_(word), bits_(bits) {
      advance_to_nonempty();
    }
    constexpr Pid operator*() const {
      return static_cast<Pid>(64 * word_ + __builtin_ctzll(bits_));
    }
    constexpr Iterator& operator++() {
      bits_ &= bits_ - 1;  // clear lowest set bit
      advance_to_nonempty();
      return *this;
    }
    friend constexpr bool operator==(const Iterator& a, const Iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    constexpr void advance_to_nonempty() {
      while (bits_ == 0 && word_ < detail::kSetWords) {
        if (word_ >= last_) {
          word_ = detail::kSetWords;
          break;
        }
        bits_ = blk_[++word_];
      }
    }

    const std::uint64_t* blk_;
    int last_;  // the set's extent: no member lies in a later word
    int word_;
    std::uint64_t bits_;
  };

  [[nodiscard]] constexpr Iterator begin() const {
    const std::uint64_t* a = blk();
    return Iterator(a, extent(a), 0, lo_);
  }
  [[nodiscard]] constexpr Iterator end() const {
    return Iterator(nullptr, 0, detail::kSetWords, 0);
  }

  /// Human-readable form, e.g. "{0,2,5}".
  [[nodiscard]] std::string to_string() const {
    std::string out = "{";
    bool first = true;
    for (Pid p : *this) {
      if (!first) out += ',';
      out += std::to_string(p);
      first = false;
    }
    out += '}';
    return out;
  }

 private:
  /// The heap block, or the shared all-zero block when there is none.
  [[nodiscard]] constexpr const std::uint64_t* blk() const {
    return hi_ != nullptr ? hi_ : detail::kZeroBlock;
  }

  [[nodiscard]] static constexpr int extent(const std::uint64_t* block) {
    return static_cast<int>(block[0]);
  }

  /// Raises the extent of the (present) block to cover word i.
  constexpr void grow_extent(int i) {
    if (static_cast<std::uint64_t>(i) > hi_[0]) {
      hi_[0] = static_cast<std::uint64_t>(i);
    }
  }

  [[nodiscard]] constexpr bool hi_zero() const {
    if (hi_ == nullptr) return true;
    for (int i = 1; i <= extent(hi_); ++i) {
      if (hi_[i] != 0) return false;
    }
    return true;
  }

  /// Makes the (present) block a copy of `src`, zeroing what lies past
  /// src's extent up to our old one.
  constexpr void assign_hi(const std::uint64_t* src) {
    const int old = extent(hi_);
    const int e = extent(src);
    for (int i = 0; i <= e; ++i) hi_[i] = src[i];
    for (int i = e + 1; i <= old; ++i) hi_[i] = 0;
  }

  [[nodiscard]] static constexpr std::uint64_t* alloc_hi() {
    if (std::is_constant_evaluated()) {
      return new std::uint64_t[detail::kSetWords]();
    }
    return detail::hi_acquire();
  }

  constexpr void drop_hi() {
    if (hi_ == nullptr) return;
    if (std::is_constant_evaluated()) {
      delete[] hi_;
    } else {
      for (int i = extent(hi_); i >= 0; --i) hi_[i] = 0;  // back zeroed
      detail::hi_release(hi_);
    }
    hi_ = nullptr;
  }

  std::uint64_t lo_ = 0;
  std::uint64_t* hi_ = nullptr;
};

static_assert(sizeof(ProcessSet) == 16,
              "one inline word plus one block pointer");

/// True when the set holds a strict majority of n processes.
[[nodiscard]] constexpr bool is_majority(const ProcessSet& s, Pid n) {
  return 2 * s.size() > n;
}

}  // namespace nucon
