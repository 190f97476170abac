// The quorum failure detector Sigma (paper §3.2).
//
// Every two quorums output anywhere, at any times, intersect; eventually
// the quorums of correct processes contain only correct processes. Two
// generation strategies are provided:
//
//  - kKernel: every quorum contains a fixed correct "kernel" process, which
//    makes intersection trivial and works in *every* environment (Sigma as
//    a mathematical object is nonempty for every failure pattern; whether
//    it is *implementable* is a different question — Theorem 7.1).
//  - kMajority: every quorum is a majority; valid only when a majority of
//    processes are correct (otherwise completeness is unsatisfiable), and
//    mirrors the "from scratch" implementation of Theorem 7.1.
#pragma once

#include "fd/failure_detector.hpp"
#include "fd/oracle_base.hpp"

namespace nucon {

enum class SigmaStrategy { kKernel, kMajority };

struct SigmaOptions {
  Time stabilize_at = 0;
  SigmaStrategy strategy = SigmaStrategy::kKernel;
  std::uint64_t seed = 0x516;
  /// The noisy part of a quorum is re-drawn every `hold` ticks rather than
  /// every tick. Algorithms that wait for "all of my current quorum"
  /// need the same quorum to recur; holding it makes convergence brisk
  /// without changing the detector class.
  Time hold = 8;
};

class SigmaOracle final : public Oracle {
 public:
  SigmaOracle(const FailurePattern& fp, SigmaOptions opts);

  [[nodiscard]] FdValue value(Pid p, Time t) override;

  /// Quorums drawn so far; every other query replayed a held one.
  [[nodiscard]] std::uint64_t quorum_draws() const { return memo_.draws(); }

 private:
  const FailurePattern& fp_;
  SigmaOptions opts_;
  ProcessSet all_;
  ProcessSet correct_;
  Pid kernel_ = 0;
  QuorumMemo memo_;
};

}  // namespace nucon
