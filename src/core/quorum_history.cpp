#include "core/quorum_history.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace nucon {
namespace {

using RowBuffer = std::array<std::uint64_t, detail::kSetWords>;

/// Three-way compare of two w-word rows in ProcessSet order (highest word
/// first), so sorted rows encode exactly as the sorted ProcessSets did.
int compare_rows(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t w) {
  for (std::size_t i = w; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

bool row_equals(const std::uint64_t* row, const ProcessSet& s, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if (row[i] != s.word(static_cast<int>(i))) return false;
  }
  return true;
}

RowBuffer row_of(const ProcessSet& s, std::size_t w) {
  RowBuffer r{};
  for (std::size_t k = 0; k < w; ++k) r[k] = s.word(static_cast<int>(k));
  return r;
}

/// Word-wise equality; inline because the ranges compared are a few words.
bool words_equal(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// First row in [lo, hi) of `words` not less than `key`.
std::size_t lower_bound_row(const std::vector<std::uint64_t>& words,
                            std::size_t lo, std::size_t hi,
                            const std::uint64_t* key, std::size_t w) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (compare_rows(words.data() + mid * w, key, w) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

QuorumHistory::QuorumHistory(Pid n)
    : n_(n),
      w_((static_cast<std::size_t>(n) + 63) / 64),
      start_(static_cast<std::size_t>(n) + 1, 0) {
  assert(n >= 1 && n <= kMaxProcesses);
}

QuorumHistory::QuorumHistory(const QuorumHistory& other)
    : n_(other.n_),
      w_(other.w_),
      start_(other.start_),
      words_(other.words_),
      generation_(other.generation_) {
  if (other.cache_) cache_ = std::make_unique<Cache>(*other.cache_);
}

QuorumHistory& QuorumHistory::operator=(const QuorumHistory& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  w_ = other.w_;
  start_ = other.start_;
  words_ = other.words_;
  generation_ = other.generation_;
  cache_ = other.cache_ ? std::make_unique<Cache>(*other.cache_) : nullptr;
  return *this;
}

ProcessSet QuorumHistory::row_set(std::size_t i) const {
  ProcessSet s;
  const std::uint64_t* r = row(i);
  for (std::size_t k = 0; k < w_; ++k) s.set_word(static_cast<int>(k), r[k]);
  return s;
}

void QuorumHistory::insert(Pid q, const ProcessSet& quorum) {
  assert(q >= 0 && q < n_);
  assert(quorum.empty() || quorum.max() < n_);
  const RowBuffer key = row_of(quorum, w_);
  const auto qi = static_cast<std::size_t>(q);
  const std::size_t pos =
      lower_bound_row(words_, start_[qi], start_[qi + 1], key.data(), w_);
  if (pos < start_[qi + 1] && compare_rows(row(pos), key.data(), w_) == 0) {
    return;
  }
  words_.insert(words_.begin() + static_cast<std::ptrdiff_t>(pos * w_),
                key.begin(), key.begin() + static_cast<std::ptrdiff_t>(w_));
  for (std::size_t r = qi + 1; r < start_.size(); ++r) ++start_[r];
  ++generation_;
}

void QuorumHistory::import(const QuorumHistory& other) {
  assert(other.n_ == n_);
  // Post-GST the sender's history is usually exactly ours (and h.import(h)
  // always is): one whole-array compare settles it.
  if (start_ == other.start_ && words_ == other.words_) return;
  // Both sides are sorted and deduplicated per process, so one two-pointer
  // walk counts what the import adds; most imports add nothing and cost
  // O(s + d) row compares, no allocation and no generation bump.
  std::size_t missing = 0;
  for (std::size_t q = 0; q < static_cast<std::size_t>(n_); ++q) {
    std::size_t i = start_[q];
    const std::size_t ie = start_[q + 1];
    std::size_t j = other.start_[q];
    const std::size_t je = other.start_[q + 1];
    if (ie - i == je - j && words_equal(row(i), other.row(j), (ie - i) * w_)) {
      continue;
    }
    for (; j < je; ++j) {
      int c = 0;
      while (i < ie && (c = compare_rows(row(i), other.row(j), w_)) < 0) ++i;
      if (i == ie || c > 0) {
        ++missing;
      } else {
        ++i;
      }
    }
  }
  if (missing == 0) return;
  // One merged rebuild. start_ is rewritten in place: iteration q reads
  // the old start_[q + 1] before iteration q + 1 overwrites it.
  std::vector<std::uint64_t> merged;
  merged.reserve((size() + missing) * w_);
  const auto append = [&merged, this](const std::uint64_t* r) {
    merged.insert(merged.end(), r, r + w_);
  };
  std::size_t i = 0;
  for (std::size_t q = 0; q < static_cast<std::size_t>(n_); ++q) {
    const std::size_t ie = start_[q + 1];
    std::size_t j = other.start_[q];
    const std::size_t je = other.start_[q + 1];
    start_[q] = static_cast<std::uint32_t>(merged.size() / w_);
    while (i < ie || j < je) {
      const int c = i == ie   ? 1
                    : j == je ? -1
                              : compare_rows(row(i), other.row(j), w_);
      if (c <= 0) {
        append(row(i++));
        if (c == 0) ++j;
      } else {
        append(other.row(j++));
      }
    }
  }
  start_.back() = static_cast<std::uint32_t>(merged.size() / w_);
  words_ = std::move(merged);
  ++generation_;
}

std::vector<ProcessSet> QuorumHistory::of(Pid q) const {
  assert(q >= 0 && q < n_);
  const auto qi = static_cast<std::size_t>(q);
  std::vector<ProcessSet> out;
  out.reserve(count(q));
  for (std::size_t i = start_[qi]; i < start_[qi + 1]; ++i) {
    out.push_back(row_set(i));
  }
  return out;
}

bool QuorumHistory::knows(Pid q, const ProcessSet& quorum) const {
  assert(q >= 0 && q < n_);
  if (!quorum.empty() && quorum.max() >= n_) return false;
  const RowBuffer key = row_of(quorum, w_);
  const auto qi = static_cast<std::size_t>(q);
  const std::size_t pos =
      lower_bound_row(words_, start_[qi], start_[qi + 1], key.data(), w_);
  return pos < start_[qi + 1] && compare_rows(row(pos), key.data(), w_) == 0;
}

std::uint32_t QuorumHistory::intern(Cache& c, const ProcessSet& quorum) const {
  const auto it = c.index.find(quorum);
  if (it != c.index.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(c.entries.size());
  Entry e;
  e.quorum = quorum;
  for (std::uint32_t other = 0; other < id; ++other) {
    if (!c.entries[other].quorum.intersects(quorum)) {
      e.disjoint_entries.push_back(other);
      e.disjoint_owners |= c.entries[other].owners;
      c.entries[other].disjoint_entries.push_back(id);
    }
  }
  // An empty quorum is disjoint from everything, including itself: its own
  // owners must land in its disjoint_owners when they are folded in.
  if (quorum.empty()) e.disjoint_entries.push_back(id);
  c.entries.push_back(std::move(e));
  c.index.emplace(quorum, id);
  return id;
}

QuorumHistory::Cache& QuorumHistory::cache() const {
  if (!cache_) {
    cache_ = std::make_unique<Cache>();
    cache_->owned.resize(static_cast<std::size_t>(n_));
    cache_->faulty.resize(static_cast<std::size_t>(n_));
  }
  Cache& c = *cache_;
  if (c.generation == generation_) return c;
  for (Pid q = 0; q < n_; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    auto& owned = c.owned[qi];
    if (owned.size() == count(q)) continue;
    // Merge walk: q's rows and owned are both sorted by quorum value, and
    // folded quorums never disappear from the rows, so every owned id
    // finds its match and the leftovers are exactly the new quorums.
    std::vector<std::uint32_t> merged;
    merged.reserve(count(q));
    std::size_t j = 0;
    for (std::size_t i = start_[qi]; i < start_[qi + 1]; ++i) {
      if (j < owned.size() &&
          row_equals(row(i), c.entries[owned[j]].quorum, w_)) {
        merged.push_back(owned[j]);
        ++j;
        continue;
      }
      const std::uint32_t id = intern(c, row_set(i));
      Entry& e = c.entries[id];
      if (!e.owners.contains(q)) {
        e.owners.insert(q);
        for (const std::uint32_t d : e.disjoint_entries) {
          Entry& de = c.entries[d];
          de.disjoint_owners.insert(q);
          // d's quorum gained a disjoint owner, so every owner of d now
          // considers q faulty. The self-disjoint empty quorum works out:
          // q is already in e.owners, so F_q picks up q itself.
          for (const Pid p : de.owners) {
            c.faulty[static_cast<std::size_t>(p)].insert(q);
          }
        }
        c.faulty[qi] |= e.disjoint_owners;
      }
      merged.push_back(id);
    }
    assert(j == owned.size());
    owned = std::move(merged);
  }
  c.generation = generation_;
  return c;
}

ProcessSet QuorumHistory::considered_faulty(Pid self) const {
  const Cache& c = cache();
  const ProcessSet out = c.faulty[static_cast<std::size_t>(self)];
  assert(out == considered_faulty_slow(self));
  return out;
}

bool QuorumHistory::distrusts(Pid self, Pid q) const {
  const Cache& c = cache();
  // Union commutes with subtracting the fixed F_self, so "some entry of q
  // has a disjoint owner outside F_self" is exactly "F_q is not a subset
  // of F_self" — one word-wise test per call, no per-entry walk.
  const bool out = !c.faulty[static_cast<std::size_t>(q)].is_subset_of(
      c.faulty[static_cast<std::size_t>(self)]);
  assert(out == distrusts_slow(self, q));
  return out;
}

ProcessSet QuorumHistory::considered_faulty_slow(Pid self) const {
  ProcessSet out;
  const auto mine = of(self);
  for (Pid q = 0; q < n_; ++q) {
    for (const ProcessSet& quorum : of(q)) {
      for (const ProcessSet& own : mine) {
        if (!quorum.intersects(own)) {
          out.insert(q);
          break;
        }
      }
      if (out.contains(q)) break;
    }
  }
  return out;
}

bool QuorumHistory::distrusts_slow(Pid self, Pid q) const {
  const ProcessSet faulty = considered_faulty_slow(self);
  const auto theirs = of(q);
  for (Pid r = 0; r < n_; ++r) {
    if (faulty.contains(r)) continue;
    for (const ProcessSet& rq : of(r)) {
      for (const ProcessSet& qq : theirs) {
        if (!qq.intersects(rq)) return true;
      }
    }
  }
  return false;
}

void QuorumHistory::encode(ByteWriter& w) const {
  // Each row is the width-aware ByteWriter::process_set(s, n) encoding of
  // its quorum, word for word.
  w.process_count(n_);
  for (std::size_t q = 0; q < static_cast<std::size_t>(n_); ++q) {
    w.uvarint(start_[q + 1] - start_[q]);
    for (std::size_t k = start_[q] * w_; k < start_[q + 1] * w_; ++k) {
      w.u64(words_[k]);
    }
  }
}

std::optional<QuorumHistory> QuorumHistory::decode(ByteReader& r) {
  const auto n = r.process_count();
  if (!n) return std::nullopt;
  QuorumHistory h(*n);
  const std::size_t w = h.w_;
  // Only the top word can hold bits at or above n (ByteReader::process_set
  // rejects those the same way).
  const int top_bits = *n - 64 * static_cast<int>(w - 1);
  const std::uint64_t top_valid = top_bits == 64
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << top_bits) - 1;
  RowBuffer key{};
  std::size_t rows = 0;
  for (std::size_t q = 0; q < static_cast<std::size_t>(*n); ++q) {
    const auto len = r.uvarint();
    if (!len) return std::nullopt;
    const std::size_t first = rows;
    // Every quorum takes 8w payload bytes, so clamping the reservation to
    // what the remaining input can hold keeps a malicious length from
    // pre-allocating unbounded memory before the read fails. Growth stays
    // geometric across processes.
    const std::size_t need =
        h.words_.size() +
        static_cast<std::size_t>(
            std::min<std::uint64_t>(*len, r.remaining() / (8 * w))) *
            w;
    if (need > h.words_.capacity()) {
      h.words_.reserve(std::max(need, 2 * h.words_.capacity()));
    }
    for (std::uint64_t i = 0; i < *len; ++i) {
      for (std::size_t k = 0; k < w; ++k) {
        const auto word = r.u64();
        if (!word) return std::nullopt;
        key[k] = *word;
      }
      if ((key[w - 1] & ~top_valid) != 0) return std::nullopt;
      // Our encoder writes each process's quorums sorted and deduplicated,
      // so appends dominate; the splice fallback keeps arbitrary (fuzzed,
      // hand-built) orderings decoding to the identical history.
      std::size_t pos = rows;
      if (rows != first && compare_rows(key.data(), h.row(rows - 1), w) <= 0) {
        pos = lower_bound_row(h.words_, first, rows, key.data(), w);
        if (compare_rows(h.row(pos), key.data(), w) == 0) continue;
      }
      h.words_.insert(h.words_.begin() + static_cast<std::ptrdiff_t>(pos * w),
                      key.begin(),
                      key.begin() + static_cast<std::ptrdiff_t>(w));
      ++rows;
    }
    h.start_[q + 1] = static_cast<std::uint32_t>(rows);
  }
  if (rows != 0) h.generation_ = 1;
  return h;
}

}  // namespace nucon
