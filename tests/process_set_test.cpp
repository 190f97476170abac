#include "util/process_set.hpp"

#include <gtest/gtest.h>

#include <bitset>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace nucon {
namespace {

static_assert(sizeof(ProcessSet) == 16, "one inline word plus one pointer");

TEST(ProcessSet, DefaultIsEmpty) {
  ProcessSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.mask(), 0u);
}

TEST(ProcessSet, InitializerList) {
  ProcessSet s{0, 2, 5};
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(5));
}

TEST(ProcessSet, FullSet) {
  EXPECT_EQ(ProcessSet::full(0).size(), 0);
  EXPECT_EQ(ProcessSet::full(1).size(), 1);
  EXPECT_EQ(ProcessSet::full(5).size(), 5);
  EXPECT_EQ(ProcessSet::full(64).size(), 64);
  EXPECT_TRUE(ProcessSet::full(64).contains(63));
  EXPECT_FALSE(ProcessSet::full(5).contains(5));
}

TEST(ProcessSet, InsertErase) {
  ProcessSet s;
  s.insert(7);
  EXPECT_TRUE(s.contains(7));
  s.insert(7);  // idempotent
  EXPECT_EQ(s.size(), 1);
  s.erase(7);
  EXPECT_TRUE(s.empty());
  s.erase(7);  // idempotent
  EXPECT_TRUE(s.empty());
}

TEST(ProcessSet, SetOperations) {
  const ProcessSet a{0, 1, 2};
  const ProcessSet b{2, 3};
  EXPECT_EQ((a | b), (ProcessSet{0, 1, 2, 3}));
  EXPECT_EQ((a & b), ProcessSet{2});
  EXPECT_EQ((a - b), (ProcessSet{0, 1}));
  EXPECT_EQ((b - a), ProcessSet{3});
}

TEST(ProcessSet, CompoundAssignment) {
  ProcessSet a{0, 1};
  a |= ProcessSet{2};
  EXPECT_EQ(a, (ProcessSet{0, 1, 2}));
  a &= ProcessSet{1, 2, 3};
  EXPECT_EQ(a, (ProcessSet{1, 2}));
}

TEST(ProcessSet, Intersects) {
  EXPECT_TRUE((ProcessSet{0, 1}).intersects(ProcessSet{1, 2}));
  EXPECT_FALSE((ProcessSet{0, 1}).intersects(ProcessSet{2, 3}));
  EXPECT_FALSE(ProcessSet{}.intersects(ProcessSet{0}));
  EXPECT_FALSE(ProcessSet{}.intersects(ProcessSet{}));
}

TEST(ProcessSet, SubsetOf) {
  EXPECT_TRUE((ProcessSet{1}).is_subset_of(ProcessSet{0, 1}));
  EXPECT_TRUE(ProcessSet{}.is_subset_of(ProcessSet{}));
  EXPECT_TRUE(ProcessSet{}.is_subset_of(ProcessSet{5}));
  EXPECT_FALSE((ProcessSet{0, 2}).is_subset_of(ProcessSet{0, 1}));
  EXPECT_TRUE((ProcessSet{0, 2}).is_subset_of(ProcessSet{0, 1, 2}));
}

TEST(ProcessSet, MinMax) {
  const ProcessSet s{3, 17, 41};
  EXPECT_EQ(s.min(), 3);
  EXPECT_EQ(s.max(), 41);
  EXPECT_EQ(ProcessSet::single(0).min(), 0);
  EXPECT_EQ(ProcessSet::single(63).max(), 63);
}

TEST(ProcessSet, IterationOrder) {
  const ProcessSet s{9, 1, 33, 5};
  std::vector<Pid> seen;
  for (Pid p : s) seen.push_back(p);
  EXPECT_EQ(seen, (std::vector<Pid>{1, 5, 9, 33}));
}

TEST(ProcessSet, IterationEmpty) {
  int count = 0;
  for (Pid p : ProcessSet{}) {
    (void)p;
    ++count;
  }
  EXPECT_EQ(count, 0);
}

TEST(ProcessSet, ToString) {
  EXPECT_EQ(ProcessSet{}.to_string(), "{}");
  EXPECT_EQ((ProcessSet{0, 2, 5}).to_string(), "{0,2,5}");
}

TEST(ProcessSet, Majority) {
  EXPECT_TRUE(is_majority(ProcessSet{0, 1}, 3));
  EXPECT_FALSE(is_majority(ProcessSet{0}, 3));
  EXPECT_FALSE(is_majority(ProcessSet{0, 1}, 4));
  EXPECT_TRUE(is_majority(ProcessSet{0, 1, 2}, 4));
  EXPECT_FALSE(is_majority(ProcessSet{}, 1));
}

TEST(ProcessSet, Ordering) {
  // Total order (mask order) enables sorted unique containers.
  std::set<ProcessSet> sets;
  sets.insert(ProcessSet{0});
  sets.insert(ProcessSet{1});
  sets.insert(ProcessSet{0});
  EXPECT_EQ(sets.size(), 2u);
}

TEST(ProcessSet, FromMaskRoundTrip) {
  const ProcessSet s{2, 7, 63};
  EXPECT_EQ(ProcessSet::from_mask(s.mask()), s);
}

// ---------------------------------------------------------------------------
// Reference model: every operation of a wide set agrees with std::bitset at
// the widths around each word boundary, including sets whose heap block
// holds zero words below its extent (after erase / &=) and blocks reused
// from the pool after holding high words.

using Ref = std::bitset<kMaxProcesses>;

Ref ref_of(const ProcessSet& s) {
  Ref r;
  for (Pid p : s) r.set(static_cast<std::size_t>(p));
  return r;
}

/// A set built by inserts only, so its extent is exactly its top word.
ProcessSet fresh(const Ref& r) {
  ProcessSet s;
  for (std::size_t p = 0; p < r.size(); ++p) {
    if (r.test(p)) s.insert(static_cast<Pid>(p));
  }
  return s;
}

/// Bitset value order, highest pid first (ProcessSet's documented order).
std::strong_ordering ref_cmp(const Ref& a, const Ref& b) {
  for (std::size_t p = a.size(); p-- > 0;) {
    if (a.test(p) != b.test(p)) {
      return a.test(p) ? std::strong_ordering::greater
                       : std::strong_ordering::less;
    }
  }
  return std::strong_ordering::equal;
}

/// A random subset of {0..n-1}: sparse, dense or empty.
Ref random_ref(Rng& rng, Pid n) {
  Ref r;
  const std::uint64_t density = rng.below(4);  // 0: empty .. 3: dense
  for (Pid p = 0; p < n; ++p) {
    if (density != 0 && rng.below(4) < density) r.set(static_cast<std::size_t>(p));
  }
  return r;
}

/// Every observer of `s` agrees with the reference `r`.
void expect_matches(const ProcessSet& s, const Ref& r) {
  ASSERT_EQ(s.size(), static_cast<int>(r.count()));
  EXPECT_EQ(s.empty(), r.none());
  EXPECT_EQ(ref_of(s), r);
  for (int i = 0; i < detail::kSetWords; ++i) {
    std::uint64_t w = 0;
    for (int b = 0; b < 64; ++b) {
      if (r.test(static_cast<std::size_t>(64 * i + b))) w |= std::uint64_t{1} << b;
    }
    EXPECT_EQ(s.word(i), w) << "word " << i;
  }
  if (r.any()) {
    Pid lo = 0;
    while (!r.test(static_cast<std::size_t>(lo))) ++lo;
    Pid hi = kMaxProcesses - 1;
    while (!r.test(static_cast<std::size_t>(hi))) --hi;
    EXPECT_EQ(s.min(), lo);
    EXPECT_EQ(s.max(), hi);
    int k = 0;
    for (Pid p : s) EXPECT_EQ(s.nth(k++), p);
  }
  EXPECT_EQ(s, fresh(r));
  EXPECT_EQ(s <=> fresh(r), std::strong_ordering::equal);
}

class ProcessSetModel : public testing::TestWithParam<Pid> {};

TEST_P(ProcessSetModel, FullSet) {
  const Pid n = GetParam();
  Ref r;
  for (Pid p = 0; p < n; ++p) r.set(static_cast<std::size_t>(p));
  expect_matches(ProcessSet::full(n), r);
}

TEST_P(ProcessSetModel, OperationsMatchBitset) {
  const Pid n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919 + 1);
  for (int round = 0; round < 60; ++round) {
    const Ref ra = random_ref(rng, n);
    const Ref rb = random_ref(rng, n);
    const ProcessSet a = fresh(ra);
    const ProcessSet b = fresh(rb);
    expect_matches(a, ra);
    expect_matches(a | b, ra | rb);
    expect_matches(a & b, ra & rb);
    expect_matches(a - b, ra & ~rb);
    EXPECT_EQ(a.intersects(b), (ra & rb).any());
    EXPECT_EQ(a.is_subset_of(b), (ra & ~rb).none());
    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(a <=> b, ref_cmp(ra, rb));

    ProcessSet c = a;
    c |= b;
    expect_matches(c, ra | rb);
    c = a;
    c &= b;
    expect_matches(c, ra & rb);
    c = b;  // assign over a block with a wider extent
    expect_matches(c, rb);
    c = ProcessSet::full(kMaxProcesses);
    c = a;
    expect_matches(c, ra);
  }
}

TEST_P(ProcessSetModel, ShrunkSetsCompareLikeFreshOnes) {
  const Pid n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 104729 + 3);
  for (int round = 0; round < 60; ++round) {
    // Start full so the extent covers every word, then shrink.
    ProcessSet shrunk = ProcessSet::full(n);
    Ref r;
    for (Pid p = 0; p < n; ++p) r.set(static_cast<std::size_t>(p));
    if (round % 2 == 0) {
      const Ref keep = random_ref(rng, n);
      shrunk &= fresh(keep);
      r &= keep;
    }
    for (Pid p = 0; p < n; ++p) {
      if (rng.below(3) == 0) {
        shrunk.erase(p);
        r.reset(static_cast<std::size_t>(p));
      }
    }
    expect_matches(shrunk, r);
    const Ref ro = random_ref(rng, n);
    const ProcessSet other = fresh(ro);
    EXPECT_EQ(shrunk == other, r == ro);
    EXPECT_EQ(shrunk <=> other, ref_cmp(r, ro));
    EXPECT_EQ(other <=> shrunk, ref_cmp(ro, r));
    EXPECT_EQ(shrunk.is_subset_of(other), (r & ~ro).none());
    EXPECT_EQ(other.is_subset_of(shrunk), (ro & ~r).none());
    EXPECT_EQ(shrunk.intersects(other), (r & ro).any());
    const std::set<ProcessSet> sorted{shrunk, fresh(r), other};
    EXPECT_EQ(sorted.size(), r == ro ? 1u : 2u);
  }
}

TEST_P(ProcessSetModel, ReusedPoolBlocksReadZero) {
  const Pid n = GetParam();
  // Fill many blocks with high words, then free them to the pool.
  {
    std::vector<ProcessSet> dirty(256, ProcessSet::full(kMaxProcesses));
    for (ProcessSet& s : dirty) s.erase(kMaxProcesses - 1);
  }
  std::vector<ProcessSet> reused;
  for (int i = 0; i < 256; ++i) {
    ProcessSet s;
    s.insert(n - 1);
    Ref r;
    r.set(static_cast<std::size_t>(n - 1));
    expect_matches(s, r);
    reused.push_back(std::move(s));
  }
}

TEST(ProcessSetPool, BlocksMoveBetweenThreads) {
  // A block may be carved on one thread, freed on another and reused on a
  // third after the first has exited: it must read zero wherever it lands.
  std::vector<ProcessSet> made;
  std::thread maker([&made] {
    for (int i = 0; i < 300; ++i) {
      ProcessSet s = ProcessSet::full(kMaxProcesses);
      s.erase(i);
      made.push_back(std::move(s));
    }
    std::vector<ProcessSet> dropped(200, ProcessSet::full(kMaxProcesses));
  });
  maker.join();  // its free list goes to the process-wide depot
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(made[static_cast<std::size_t>(i)].size(), kMaxProcesses - 1);
  }
  made.clear();  // freed on this thread
  std::vector<int> sizes;
  std::thread reuser([&sizes] {
    std::vector<ProcessSet> kept;  // hold each block so none is reused twice
    for (int i = 0; i < 400; ++i) {
      ProcessSet s;
      s.insert(64 + i % 900);
      sizes.push_back(s.size());
      kept.push_back(std::move(s));
    }
  });
  reuser.join();
  EXPECT_EQ(sizes, std::vector<int>(400, 1));
}

INSTANTIATE_TEST_SUITE_P(Widths, ProcessSetModel,
                         testing::Values(1, 63, 64, 65, 127, 128, 129, 1000,
                                         1024));

}  // namespace
}  // namespace nucon
