// Shared helpers for concrete oracles.
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "fd/failure_detector.hpp"
#include "util/rng.hpp"

namespace nucon {

/// Deterministic stateless noise: the same (seed, p, t, salt) always mixes
/// to the same word, so an oracle's answer to value(p, t) never depends on
/// which queries came before (QuorumMemo only skips repeating a draw).
[[nodiscard]] constexpr std::uint64_t oracle_mix(std::uint64_t seed, Pid p,
                                                 Time t,
                                                 std::uint64_t salt = 0) {
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(t) * 0xbf58476d1ce4e5b9ULL) ^
                    (salt * 0x94d049bb133111ebULL);
  return splitmix64(s);
}

/// A deterministic pseudo-random subset of `universe` that always includes
/// `always`, sized between |always| and |universe|.
[[nodiscard]] inline ProcessSet noisy_superset(ProcessSet always,
                                               ProcessSet universe,
                                               std::uint64_t mix) {
  Rng rng(mix);
  const ProcessSet extras = universe - always;
  ProcessSet out = always;
  if (!extras.empty()) {
    const int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(extras.size()) + 1));
    out |= rng.pick_subset(extras, k);
  }
  return out;
}

/// Replays each quorum a Σ-family oracle draws for the rest of its hold
/// window.
///
/// A quorum oracle's draw at (p, t) is fixed by p, the hold window t / hold,
/// whether t has reached stabilization, and the shape of quorum p's module
/// outputs (benign or adversarial, kernel or majority). The memo keeps one
/// slot per (p, shape, stable) holding the last window drawn and its quorum:
/// a query in that window replays the quorum, any other window runs the
/// draw again. A miss runs the same draw the oracle would run without the
/// memo, so H(p, t) stays a function of (p, t) alone, whatever order the
/// queries come in.
class QuorumMemo {
 public:
  QuorumMemo(Pid n, int shapes)
      : shapes_(shapes),
        slots_(static_cast<std::size_t>(n) * static_cast<std::size_t>(shapes) * 2) {}

  /// The quorum for key (p, window, stable, shape), running `draw()` only
  /// if this slot does not already hold that window's quorum.
  template <class Draw>
  [[nodiscard]] const ProcessSet& get(Pid p, Time window, bool stable,
                                      int shape, Draw&& draw) {
    assert(shape >= 0 && shape < shapes_);
    const std::size_t i =
        (static_cast<std::size_t>(p) * static_cast<std::size_t>(shapes_) +
         static_cast<std::size_t>(shape)) * 2 + (stable ? 1 : 0);
    assert(i < slots_.size());
    Slot& slot = slots_[i];
    if (slot.window != window) {
      slot.quorum = draw();
      slot.window = window;
      ++draws_;
    }
    return slot.quorum;
  }

  /// Draws run so far (misses); every other get() was a replay.
  [[nodiscard]] std::uint64_t draws() const { return draws_; }

 private:
  struct Slot {
    std::optional<Time> window;
    ProcessSet quorum;
  };

  int shapes_;
  std::vector<Slot> slots_;
  std::uint64_t draws_ = 0;
};

}  // namespace nucon
