#include "fd/sigma.hpp"

#include <cassert>

#include <algorithm>

namespace nucon {

SigmaOracle::SigmaOracle(const FailurePattern& fp, SigmaOptions opts)
    : fp_(fp),
      opts_(opts),
      all_(ProcessSet::full(fp.n())),
      correct_(fp.correct()),
      memo_(fp.n(), 1) {
  kernel_ = correct_.empty() ? 0 : correct_.min();
  if (opts_.strategy == SigmaStrategy::kMajority) {
    // Majority quorums can satisfy completeness only if a majority is
    // correct; the constructor enforces the precondition loudly.
    assert(is_majority(correct_, fp_.n()));
  }
}

FdValue SigmaOracle::value(Pid p, Time t) {
  const bool stable = t >= opts_.stabilize_at;
  const Time window = t / std::max<Time>(1, opts_.hold);
  const std::uint64_t mix = oracle_mix(opts_.seed, p, window, stable);
  // One shape per oracle: the strategy is fixed at construction.
  return FdValue::of_quorum(memo_.get(p, window, stable, 0, [&] {
    const ProcessSet& universe = stable ? correct_ : all_;
    switch (opts_.strategy) {
      case SigmaStrategy::kKernel:
        return noisy_superset(ProcessSet::single(kernel_), universe, mix);
      case SigmaStrategy::kMajority: {
        const int quorum_size = fp_.n() / 2 + 1;
        Rng rng(mix);
        return rng.pick_subset(universe, quorum_size);
      }
    }
    __builtin_unreachable();
  }));
}

}  // namespace nucon
