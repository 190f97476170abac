// Quorum histories and the distrust machinery of A_nuc (paper Fig. 5).
//
// H_p is an array indexed by process: H_p[q] is the set of quorums of q
// that p knows about (its own via get_quorum, others' via SAW messages and
// the histories piggybacked on LEAD/PROP messages).
//
//   F_p          = processes q' with a known quorum disjoint from one of
//                  p's own quorums — p "considers q' faulty" (line 52);
//   distrusts(q) = there are r not in F_p and known quorums Q of q and R
//                  of r that are disjoint (line 53).
//
// Quorums are only ever added (Observation 6.10), so F_p is monotone
// (Observation 6.11). That monotonicity is what makes the queries cheap to
// maintain incrementally: the history keeps a lazily synced cache of
// distinct quorum values ("entries"), each carrying its owner set and the
// set of processes owning a quorum disjoint from it. A new quorum is
// interned once (one disjointness scan over the distinct values); membership
// and distrust queries then read the precomputed owner/disjoint-owner sets
// instead of re-running the triple loop over all (q, quorum, own) triples on
// every A_nuc step. Note distrust itself is NOT monotone in the witness — r
// may later join F_p — so the cache stores the disjointness *relation*, not
// boolean distrust results; queries subtract the current F_p at read time.
//
// Debug builds (!NDEBUG) cross-check every cached query against the
// recompute-from-scratch reference (considered_faulty_slow / distrusts_slow).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "util/bytes.hpp"
#include "util/process_set.hpp"

namespace nucon {

class QuorumHistory {
 public:
  explicit QuorumHistory(Pid n);

  QuorumHistory(const QuorumHistory& other);
  QuorumHistory& operator=(const QuorumHistory& other);
  QuorumHistory(QuorumHistory&&) noexcept = default;
  QuorumHistory& operator=(QuorumHistory&&) noexcept = default;
  ~QuorumHistory() = default;

  [[nodiscard]] Pid n() const { return n_; }

  /// H[q] <- H[q] u {quorum}. The quorum must lie within 0..n-1.
  void insert(Pid q, const ProcessSet& quorum);

  /// import_history (Fig. 5 lines 44-46): pointwise union.
  void import(const QuorumHistory& other);

  /// The known quorums of q, materialized in increasing ProcessSet order.
  /// A copy: tests and the *_slow references read it, the hot paths never.
  [[nodiscard]] std::vector<ProcessSet> of(Pid q) const;

  /// |H[q]|.
  [[nodiscard]] std::size_t count(Pid q) const {
    return start_[static_cast<std::size_t>(q) + 1] -
           start_[static_cast<std::size_t>(q)];
  }

  [[nodiscard]] bool knows(Pid q, const ProcessSet& quorum) const;

  /// F_p for p = self (Fig. 5 line 52).
  [[nodiscard]] ProcessSet considered_faulty(Pid self) const;

  /// distrusts(q) for p = self (Fig. 5 lines 51-53).
  [[nodiscard]] bool distrusts(Pid self, Pid q) const;

  /// Recompute-from-scratch reference implementations of the two queries
  /// above. The cached versions must agree with these on every history (the
  /// scale-label equivalence oracle and the !NDEBUG cross-check both pin
  /// it); they are the pre-cache triple loops, kept verbatim.
  [[nodiscard]] ProcessSet considered_faulty_slow(Pid self) const;
  [[nodiscard]] bool distrusts_slow(Pid self, Pid q) const;

  /// Total number of (process, quorum) entries.
  [[nodiscard]] std::size_t size() const { return start_.back(); }

  void encode(ByteWriter& w) const;
  [[nodiscard]] static std::optional<QuorumHistory> decode(ByteReader& r);

 private:
  /// One distinct quorum value across the whole history.
  struct Entry {
    ProcessSet quorum;
    /// Processes q with quorum in H[q].
    ProcessSet owners;
    /// Processes owning some known quorum disjoint from this one (an empty
    /// quorum counts as disjoint from itself).
    ProcessSet disjoint_owners;
    /// Ids of entries whose quorum is disjoint from this one.
    std::vector<std::uint32_t> disjoint_entries;
  };

  struct Cache {
    std::vector<Entry> entries;
    /// quorum value -> entry id.
    std::map<ProcessSet, std::uint32_t> index;
    /// Per process: owned entry ids, sorted by quorum value (mirrors the
    /// order of q's rows).
    std::vector<std::vector<std::uint32_t>> owned;
    /// Per process p: F_p, the union of disjoint_owners over p's owned
    /// entries, maintained eagerly as ownerships fold in. Makes
    /// considered_faulty a copy and distrusts a subset test — the identity
    /// is that union commutes with subtracting the fixed F_self, so
    /// "some owned entry has a disjoint owner outside F_self" collapses to
    /// "F_q is not a subset of F_self".
    std::vector<ProcessSet> faulty;
    /// Value of generation_ the cache was last synced at.
    std::uint64_t generation = 0;
  };

  /// Brings the cache up to date with the rows and returns it. For
  /// processes whose quorum count is unchanged this skips immediately;
  /// otherwise it merges the sorted rows against the sorted owned-entry
  /// list and interns only the new values (Observation 6.10: nothing is
  /// ever removed, so folded quorums are always still present).
  Cache& cache() const;

  std::uint32_t intern(Cache& c, const ProcessSet& quorum) const;

  [[nodiscard]] const std::uint64_t* row(std::size_t i) const {
    return words_.data() + i * w_;
  }
  [[nodiscard]] ProcessSet row_set(std::size_t i) const;

  Pid n_;
  /// Words per quorum, ceil(n / 64).
  std::size_t w_;
  /// Row r is words_[r*w_ .. r*w_ + w_), lowest word first (the wire
  /// order). Process q's known quorums are rows start_[q] .. start_[q+1]-1,
  /// sorted increasing in ProcessSet order and deduplicated, so encode is
  /// a straight copy of the words and equal histories compare with one
  /// whole-array test.
  std::vector<std::uint32_t> start_;
  std::vector<std::uint64_t> words_;
  /// Bumped on every change to the rows; cheap cache-freshness check.
  std::uint64_t generation_ = 0;
  mutable std::unique_ptr<Cache> cache_;
};

}  // namespace nucon
