// Unit tests for the distrust machinery (paper Fig. 5, Lemmas 6.20-6.22),
// and a reference-model check of the packed history layout.
#include "core/quorum_history.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace nucon {
namespace {

TEST(QuorumHistory, StartsEmpty) {
  const QuorumHistory h(4);
  for (Pid q = 0; q < 4; ++q) EXPECT_TRUE(h.of(q).empty());
  EXPECT_EQ(h.size(), 0u);
}

TEST(QuorumHistory, InsertDeduplicates) {
  QuorumHistory h(3);
  h.insert(1, ProcessSet{0, 1});
  h.insert(1, ProcessSet{0, 1});
  h.insert(1, ProcessSet{1, 2});
  EXPECT_EQ(h.of(1).size(), 2u);
  EXPECT_TRUE(h.knows(1, ProcessSet{0, 1}));
  EXPECT_TRUE(h.knows(1, ProcessSet{1, 2}));
  EXPECT_FALSE(h.knows(1, ProcessSet{0, 2}));
  EXPECT_FALSE(h.knows(0, ProcessSet{0, 1}));
}

TEST(QuorumHistory, ImportIsPointwiseUnion) {
  QuorumHistory a(3);
  a.insert(0, ProcessSet{0});
  QuorumHistory b(3);
  b.insert(0, ProcessSet{0, 1});
  b.insert(2, ProcessSet{2});
  a.import(b);
  EXPECT_EQ(a.of(0).size(), 2u);
  EXPECT_TRUE(a.knows(2, ProcessSet{2}));
  // Import is idempotent.
  a.import(b);
  EXPECT_EQ(a.size(), 3u);
}

TEST(QuorumHistory, ConsideredFaultyNeedsOwnQuorumDisjointness) {
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});  // own quorum of process 0
  h.insert(3, ProcessSet{2, 3});  // disjoint from {0,1}
  h.insert(2, ProcessSet{1, 2});  // intersects {0,1}
  const ProcessSet f = h.considered_faulty(0);
  EXPECT_TRUE(f.contains(3));
  EXPECT_FALSE(f.contains(2));
  EXPECT_FALSE(f.contains(0));
}

TEST(QuorumHistory, SelfNeverConsideredFaultyUnderSelfInclusion) {
  // Lemma 6.20: with self-inclusive quorums, p never lands in F_p.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(0, ProcessSet{0, 2});
  h.insert(0, ProcessSet{0, 3});
  EXPECT_FALSE(h.considered_faulty(0).contains(0));
}

TEST(QuorumHistory, DistrustOfConsideredFaulty) {
  // Lemma 6.22: q in F_p implies p distrusts q (witnessed by r = p, which
  // is not in F_p).
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3});
  EXPECT_TRUE(h.considered_faulty(0).contains(3));
  EXPECT_TRUE(h.distrusts(0, 3));
}

TEST(QuorumHistory, DistrustViaThirdParty) {
  // p's own quorums intersect everyone, but two OTHER processes conflict:
  // p distrusts each of them (neither is in F_p, so each witnesses against
  // the other).
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1, 2, 3});  // own quorum: intersects all
  h.insert(1, ProcessSet{0, 1});
  h.insert(2, ProcessSet{2, 3});
  EXPECT_TRUE(h.considered_faulty(0).empty());
  EXPECT_TRUE(h.distrusts(0, 1));
  EXPECT_TRUE(h.distrusts(0, 2));
}

TEST(QuorumHistory, ConsideredFaultyWitnessDoesNotCountForDistrust) {
  // The conflict {2,3} vs {0,1} exists, but 3 is already in F_0 (its
  // quorum misses 0's own), so 3 cannot serve as the trusted witness r
  // against process 1: distrust needs a conflict with some r NOT in F_p.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3});
  h.insert(1, ProcessSet{0, 1});
  EXPECT_TRUE(h.distrusts(0, 3));
  EXPECT_FALSE(h.distrusts(0, 1));
}

TEST(QuorumHistory, NoDistrustWhenAllIntersect) {
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0, 1});
  h.insert(1, ProcessSet{1, 2});
  h.insert(2, ProcessSet{0, 2});
  for (Pid q = 0; q < 3; ++q) EXPECT_FALSE(h.distrusts(0, q)) << q;
}

TEST(QuorumHistory, DistrustIsMonotone) {
  // Observation 6.10/6.11: quorums are only added, so distrust never
  // reverts.
  QuorumHistory h(4);
  h.insert(0, ProcessSet{0, 1});
  EXPECT_FALSE(h.distrusts(0, 3));
  h.insert(3, ProcessSet{2, 3});
  EXPECT_TRUE(h.distrusts(0, 3));
  h.insert(3, ProcessSet{0, 1, 2, 3});  // a later benign quorum
  EXPECT_TRUE(h.distrusts(0, 3));       // the old conflict still stands
}

TEST(QuorumHistory, EncodeDecodeRoundTrip) {
  QuorumHistory h(5);
  h.insert(0, ProcessSet{0, 1});
  h.insert(3, ProcessSet{2, 3, 4});
  h.insert(3, ProcessSet{3});
  ByteWriter w;
  h.encode(w);
  const Bytes buf = w.take();
  ByteReader r(buf);
  const auto got = QuorumHistory::decode(r);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->n(), 5);
  EXPECT_EQ(got->size(), 3u);
  EXPECT_TRUE(got->knows(0, ProcessSet{0, 1}));
  EXPECT_TRUE(got->knows(3, ProcessSet{2, 3, 4}));
  EXPECT_TRUE(got->knows(3, ProcessSet{3}));
  EXPECT_TRUE(r.done());
}

TEST(QuorumHistory, CodecCoversEveryProcessCount) {
  // The process count rides as 1..kMaxProcesses, so n = kMaxProcesses
  // (one past the largest pid) decodes, and 0 and kMaxProcesses+1 do not.
  QuorumHistory h(kMaxProcesses);
  h.insert(0, ProcessSet{0, 64, kMaxProcesses - 1});
  h.insert(kMaxProcesses - 1, ProcessSet::full(kMaxProcesses));
  ByteWriter w;
  h.encode(w);
  const Bytes buf = w.take();
  ByteReader r(buf);
  const auto got = QuorumHistory::decode(r);
  ASSERT_TRUE(got);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got->n(), kMaxProcesses);
  EXPECT_EQ(got->size(), 2u);
  EXPECT_TRUE(got->knows(0, ProcessSet{0, 64, kMaxProcesses - 1}));
  EXPECT_TRUE(got->knows(kMaxProcesses - 1, ProcessSet::full(kMaxProcesses)));

  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{kMaxProcesses + 1}}) {
    ByteWriter bw;
    bw.svarint(bad);
    const Bytes bad_buf = bw.take();
    ByteReader br(bad_buf);
    EXPECT_FALSE(QuorumHistory::decode(br)) << bad;
  }
}

TEST(QuorumHistory, DecodeRejectsTruncated) {
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0});
  ByteWriter w;
  h.encode(w);
  Bytes buf = w.take();
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_FALSE(QuorumHistory::decode(r));
}

TEST(QuorumHistory, EmptyQuorumConflictsWithEverything) {
  // An empty quorum in someone's history is disjoint from every quorum,
  // including one's own: its owner is considered faulty.
  QuorumHistory h(3);
  h.insert(0, ProcessSet{0});
  h.insert(1, ProcessSet{});
  EXPECT_TRUE(h.considered_faulty(0).contains(1));
  EXPECT_TRUE(h.distrusts(0, 1));
}

// ---------------------------------------------------------------------------
// The packed layout against a plain model: per process, a std::set of
// quorums (sorted in ProcessSet order, deduplicated by construction).

using Model = std::vector<std::set<ProcessSet>>;

/// The wire form the layout must reproduce byte for byte: the model
/// written through ByteWriter::process_set(s, n).
Bytes encode_model(const Model& m, Pid n) {
  ByteWriter w;
  w.pid(n);
  for (const auto& sets : m) {
    w.uvarint(sets.size());
    for (const ProcessSet& s : sets) w.process_set(s, n);
  }
  return w.take();
}

Bytes encode(const QuorumHistory& h) {
  ByteWriter w;
  h.encode(w);
  return w.take();
}

std::optional<QuorumHistory> decode(const Bytes& b) {
  ByteReader r(b);
  auto h = QuorumHistory::decode(r);
  if (h) {
    EXPECT_TRUE(r.done());
  }
  return h;
}

/// Quorums biased toward collisions: a small per-width pool supplies
/// repeats, the rest are fresh random subsets, with the empty set and the
/// universe as edge shapes.
class QuorumSource {
 public:
  QuorumSource(Pid n, std::uint64_t seed) : n_(n), rng_(seed) {
    for (int i = 0; i < 6; ++i) pool_.push_back(fresh());
  }
  ProcessSet next() {
    if (rng_.chance(1, 20)) return {};
    if (rng_.chance(1, 20)) return ProcessSet::full(n_);
    if (rng_.chance(1, 2)) return pool_[rng_.below(pool_.size())];
    return fresh();
  }
  Pid owner() {
    return static_cast<Pid>(rng_.below(static_cast<std::uint64_t>(n_)));
  }
  Rng& rng() { return rng_; }

 private:
  ProcessSet fresh() {
    const auto k = 1 + rng_.below(static_cast<std::uint64_t>(n_));
    return rng_.pick_subset(ProcessSet::full(n_), static_cast<int>(k));
  }
  Pid n_;
  Rng rng_;
  std::vector<ProcessSet> pool_;
};

void expect_matches_model(const QuorumHistory& h, const Model& m,
                          QuorumSource& src, const char* context) {
  const Pid n = h.n();
  std::size_t total = 0;
  for (Pid q = 0; q < n; ++q) {
    const auto& want = m[static_cast<std::size_t>(q)];
    total += want.size();
    ASSERT_EQ(h.count(q), want.size()) << context << ": count(" << q << ")";
    ASSERT_EQ(h.of(q), std::vector<ProcessSet>(want.begin(), want.end()))
        << context << ": of(" << q << ")";
    for (const ProcessSet& s : want) {
      EXPECT_TRUE(h.knows(q, s)) << context << ": knows(" << q << ")";
    }
    const ProcessSet probe = src.next();
    EXPECT_EQ(h.knows(q, probe), want.count(probe) == 1)
        << context << ": knows(" << q << ", " << probe.to_string() << ")";
  }
  EXPECT_EQ(h.size(), total) << context;
  EXPECT_EQ(encode(h), encode_model(m, n)) << context << ": encode bytes";
  // The cached queries against the recompute-from-scratch references, on
  // a sample of (self, q) pairs (the references are quadratic).
  for (int i = 0; i < 6; ++i) {
    const Pid self = src.owner();
    const Pid q = src.owner();
    EXPECT_EQ(h.considered_faulty(self), h.considered_faulty_slow(self))
        << context << ": considered_faulty(" << self << ")";
    EXPECT_EQ(h.distrusts(self, q), h.distrusts_slow(self, q))
        << context << ": distrusts(" << self << ", " << q << ")";
  }
}

class QuorumHistoryModel : public testing::TestWithParam<Pid> {};

TEST_P(QuorumHistoryModel, InsertImportAndCodecMatchTheModel) {
  const Pid n = GetParam();
  QuorumSource src(n, 0x5EED0000u + static_cast<std::uint64_t>(n));
  QuorumHistory h(n);
  Model m(static_cast<std::size_t>(n));
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 8; ++i) {
      const Pid q = src.owner();
      const ProcessSet s = src.next();
      h.insert(q, s);
      m[static_cast<std::size_t>(q)].insert(s);
    }
    expect_matches_model(h, m, src, "after inserts");

    // Import a second history that overlaps ours: a copy of ours with
    // some processes' quorums added (so some imports add nothing).
    QuorumHistory other(n);
    Model om(static_cast<std::size_t>(n));
    if (src.rng().chance(1, 2)) {
      other = h;
      om = m;
    }
    const int extra = static_cast<int>(src.rng().below(6));
    for (int i = 0; i < extra; ++i) {
      const Pid q = src.owner();
      const ProcessSet s = src.next();
      other.insert(q, s);
      om[static_cast<std::size_t>(q)].insert(s);
    }
    h.import(other);
    for (std::size_t q = 0; q < m.size(); ++q) {
      m[q].insert(om[q].begin(), om[q].end());
    }
    expect_matches_model(h, m, src, "after import");
    expect_matches_model(other, om, src, "import source");

    const Bytes before = encode(h);
    h.import(h);
    EXPECT_EQ(encode(h), before) << "h.import(h) must be a no-op";

    const auto decoded = decode(before);
    ASSERT_TRUE(decoded.has_value());
    expect_matches_model(*decoded, m, src, "decoded");
  }
}

TEST_P(QuorumHistoryModel, ImportOfSameShapeHistoryMerges) {
  // Equal per-process counts but different quorums: the row offsets
  // agree everywhere, the words do not.
  const Pid n = GetParam();
  QuorumSource src(n, 0x5A3Eu + static_cast<std::uint64_t>(n));
  QuorumHistory a(n);
  QuorumHistory b(n);
  Model m(static_cast<std::size_t>(n));
  for (Pid q = 0; q < n; ++q) {
    a.insert(q, ProcessSet::single(q));
    b.insert(q, ProcessSet{});
    m[static_cast<std::size_t>(q)] = {ProcessSet::single(q), ProcessSet{}};
  }
  a.import(b);
  expect_matches_model(a, m, src, "same-shape import");
}

TEST_P(QuorumHistoryModel, DecodeSortsAndDeduplicatesArbitraryOrder) {
  // A hand-built payload listing each process's quorums shuffled and with
  // repeats decodes to the same history as the canonical encoding.
  const Pid n = GetParam();
  QuorumSource src(n, 0xD0C0DEu + static_cast<std::uint64_t>(n));
  Model m(static_cast<std::size_t>(n));
  ByteWriter w;
  w.pid(n);
  for (Pid q = 0; q < n; ++q) {
    const int k = q % 3 == 0 ? 0 : static_cast<int>(src.rng().below(7));
    std::vector<ProcessSet> listed;
    for (int i = 0; i < k; ++i) {
      const ProcessSet s = src.next();
      listed.push_back(s);
      if (src.rng().chance(1, 3)) listed.push_back(s);  // duplicate
      m[static_cast<std::size_t>(q)].insert(s);
    }
    for (std::size_t i = listed.size(); i > 1; --i) {
      std::swap(listed[i - 1], listed[src.rng().below(i)]);
    }
    w.uvarint(listed.size());
    for (const ProcessSet& s : listed) w.process_set(s, n);
  }
  const auto h = decode(w.take());
  ASSERT_TRUE(h.has_value());
  expect_matches_model(*h, m, src, "shuffled decode");
}

TEST_P(QuorumHistoryModel, DecodeRejectsTruncatedAndOverWideInput) {
  const Pid n = GetParam();
  QuorumSource src(n, 0xBAD0u + static_cast<std::uint64_t>(n));
  QuorumHistory h(n);
  for (int i = 0; i < 10; ++i) h.insert(src.owner(), src.next());
  h.insert(n - 1, ProcessSet{n - 1});  // a top-word row
  const Bytes full = encode(h);
  // Every strict prefix is truncated somewhere: a length, or a row word.
  for (std::size_t len : {full.size() - 1, full.size() - 8, full.size() / 2,
                          std::size_t{1}}) {
    const Bytes cut(full.begin(),
                    full.begin() + static_cast<std::ptrdiff_t>(len));
    ByteReader r(cut);
    EXPECT_FALSE(QuorumHistory::decode(r)) << "prefix of " << len;
  }

  // A member at or above n in the top word, wherever the width leaves
  // spare bits, is rejected exactly as ByteReader::process_set(n) does.
  if (n % 64 != 0) {
    ByteWriter row;
    for (int i = 0; i < (n + 63) / 64 - 1; ++i) row.u64(0);
    row.u64(std::uint64_t{1} << (n % 64));
    const Bytes row_bytes = row.take();
    ByteReader set_reader(row_bytes);
    EXPECT_FALSE(set_reader.process_set(n).has_value());

    ByteWriter w;
    w.pid(n);
    w.uvarint(1);
    w.raw(row_bytes);
    for (Pid q = 1; q < n; ++q) w.uvarint(0);
    const Bytes wide = w.take();
    ByteReader r(wide);
    EXPECT_FALSE(QuorumHistory::decode(r));
  }

  // A length far beyond the input fails on the read, without reserving
  // storage for it first.
  ByteWriter w;
  w.pid(n);
  w.uvarint(std::uint64_t{1} << 40);
  w.u64(0);
  const Bytes huge = w.take();
  ByteReader r(huge);
  EXPECT_FALSE(QuorumHistory::decode(r));
}

INSTANTIATE_TEST_SUITE_P(Widths, QuorumHistoryModel,
                         testing::Values(1, 2, 63, 64, 65, 128, 1000),
                         [](const testing::TestParamInfo<Pid>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace nucon
