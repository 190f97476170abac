#include "fd/sigma_nu.hpp"

#include <algorithm>

namespace nucon {

SigmaNuOracle::SigmaNuOracle(const FailurePattern& fp, SigmaNuOptions opts)
    : fp_(fp),
      opts_(opts),
      all_(ProcessSet::full(fp.n())),
      correct_(fp.correct()),
      faulty_(fp.faulty()),
      memo_(fp.n(), 1) {
  kernel_ = correct_.empty() ? 0 : correct_.min();
}

FdValue SigmaNuOracle::value(Pid p, Time t) {
  const bool stable = t >= opts_.stabilize_at;
  const Time window = t / std::max<Time>(1, opts_.hold);
  const std::uint64_t mix = oracle_mix(opts_.seed, p, window, stable);
  // One shape per process: whether p's module is benign is fixed by F.
  return FdValue::of_quorum(memo_.get(p, window, stable, 0, [&] {
    if (fp_.is_correct(p) || opts_.faulty == FaultyQuorumBehavior::kBenign) {
      // Correct modules: every quorum contains the correct kernel process,
      // so correct quorums always pairwise intersect; after stabilization
      // the noise is drawn from the correct processes only (completeness).
      const ProcessSet& universe = stable ? correct_ : all_;
      return noisy_superset(ProcessSet::single(kernel_), universe, mix);
    }

    switch (opts_.faulty) {
      case FaultyQuorumBehavior::kAdversarialDisjoint:
        // A faulty-only quorum around p itself: misses every stabilized
        // correct quorum. Sigma^nu places no constraint on it.
        return noisy_superset(ProcessSet::single(p), faulty_, mix);
      case FaultyQuorumBehavior::kNoise: {
        Rng rng(mix);
        // k >= 1: an empty quorum would vacuously satisfy every
        // "quorum ⊆ heard-from" wait and understate contamination pressure.
        const int k = 1 + static_cast<int>(
                              rng.below(static_cast<std::uint64_t>(fp_.n())));
        return rng.pick_subset(all_, k);
      }
      case FaultyQuorumBehavior::kBenign:
        break;  // handled above
    }
    __builtin_unreachable();
  }));
}

}  // namespace nucon
