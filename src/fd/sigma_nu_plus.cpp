#include "fd/sigma_nu.hpp"
#include <algorithm>

namespace nucon {

SigmaNuPlusOracle::SigmaNuPlusOracle(const FailurePattern& fp,
                                     SigmaNuPlusOptions opts)
    : fp_(fp),
      opts_(opts),
      all_(ProcessSet::full(fp.n())),
      correct_(fp.correct()),
      faulty_(fp.faulty()),
      memo_(fp.n(), 2) {
  kernel_ = correct_.empty() ? 0 : correct_.min();
}

FdValue SigmaNuPlusOracle::value(Pid p, Time t) {
  const bool stable = t >= opts_.stabilize_at;
  const Time window = t / std::max<Time>(1, opts_.hold);
  const std::uint64_t mix = oracle_mix(opts_.seed, p, window, stable);

  // Correct modules (and benign faulty ones): {p, kernel} plus noise.
  // Self-inclusion holds by construction; every such quorum contains the
  // kernel, so it intersects every other such quorum, which discharges
  // both intersection properties.
  const auto benign = [&] {
    return FdValue::of_quorum(memo_.get(p, window, stable, 0, [&] {
      const ProcessSet& universe = stable ? correct_ : all_;
      return noisy_superset(
          ProcessSet::single(p) | ProcessSet::single(kernel_),
          universe | ProcessSet::single(p), mix);
    }));
  };
  // Faulty-only quorum around p: legal under conditional nonintersection
  // precisely because it contains only faulty processes. This is the
  // history of the paper's §6.3 scenario.
  const auto adversarial = [&] {
    return FdValue::of_quorum(memo_.get(p, window, stable, 1, [&] {
      return noisy_superset(ProcessSet::single(p), faulty_, mix);
    }));
  };

  if (fp_.is_correct(p) || opts_.faulty == FaultyQuorumBehavior::kBenign) {
    return benign();
  }

  switch (opts_.faulty) {
    case FaultyQuorumBehavior::kAdversarialDisjoint:
      return adversarial();
    case FaultyQuorumBehavior::kNoise:
      // Randomly alternate between the two legal shapes. The coin is
      // per tick, so each shape keeps its own memo slot.
      if (oracle_mix(opts_.seed, p, t, 1) & 1) return adversarial();
      return benign();
    case FaultyQuorumBehavior::kBenign:
      break;  // handled above
  }
  __builtin_unreachable();
}

}  // namespace nucon
