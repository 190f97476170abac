// The quorum oracles (Σ, Σν, Σν+) draw each quorum once per (p, hold
// window, stable, shape) and replay it. These tests pin that the replay is
// invisible: a long-lived oracle queried in any order answers exactly what
// a fresh oracle asked only that (p, t) answers, and a memo that stops
// hitting shows up as extra draws.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fd/oracle_base.hpp"
#include "fd/sigma.hpp"
#include "fd/sigma_nu.hpp"

namespace nucon {
namespace {

constexpr Time kHorizon = 60;
// Mid-window for hold 8 (windows [24, 32)) and inside the single window
// of a hold beyond the horizon.
constexpr Time kStabilize = 28;

struct MemoParam {
  Pid n;
  Time hold;
};

void PrintTo(const MemoParam& p, std::ostream* os) {
  *os << "n" << p.n << "_hold" << p.hold;
}

/// A quorum oracle under test: how to build it and read its draw count.
struct Subject {
  std::string name;
  std::function<std::unique_ptr<Oracle>()> make;
  std::function<std::uint64_t(Oracle&)> draws;
};

template <class O, class Opts>
Subject subject(std::string name, const FailurePattern& fp, Opts opts) {
  return {std::move(name),
          [&fp, opts] { return std::make_unique<O>(fp, opts); },
          [](Oracle& o) { return static_cast<O&>(o).quorum_draws(); }};
}

class QuorumMemoTest : public testing::TestWithParam<MemoParam> {
 protected:
  QuorumMemoTest() : fp_(GetParam().n) {
    // Two faulty processes, one crashing before and one after
    // stabilization; a majority stays correct for Σ's majority strategy.
    fp_.set_crash(1, 10);
    fp_.set_crash(GetParam().n - 1, 45);
  }

  std::vector<Subject> subjects() const {
    std::vector<Subject> out;
    for (const auto strategy :
         {SigmaStrategy::kKernel, SigmaStrategy::kMajority}) {
      SigmaOptions o;
      o.stabilize_at = kStabilize;
      o.hold = GetParam().hold;
      o.strategy = strategy;
      out.push_back(subject<SigmaOracle>(
          strategy == SigmaStrategy::kKernel ? "sigma-kernel" : "sigma-majority",
          fp_, o));
    }
    for (const auto behavior :
         {FaultyQuorumBehavior::kBenign, FaultyQuorumBehavior::kNoise,
          FaultyQuorumBehavior::kAdversarialDisjoint}) {
      const std::string mode = std::to_string(static_cast<int>(behavior));
      SigmaNuOptions nu;
      nu.stabilize_at = kStabilize;
      nu.hold = GetParam().hold;
      nu.faulty = behavior;
      out.push_back(subject<SigmaNuOracle>("sigma-nu-" + mode, fp_, nu));
      SigmaNuPlusOptions plus;
      plus.stabilize_at = kStabilize;
      plus.hold = GetParam().hold;
      plus.faulty = behavior;
      out.push_back(
          subject<SigmaNuPlusOracle>("sigma-nu-plus-" + mode, fp_, plus));
    }
    return out;
  }

  /// An interleaved query sequence: it revisits a few processes often and
  /// sends t backwards and forwards across window and stabilization
  /// boundaries.
  std::vector<std::pair<Pid, Time>> queries() const {
    const Pid n = GetParam().n;
    const std::vector<Pid> hot = {0, 1, 2, n / 2, n - 1};
    const std::vector<Time> jumps = {27, 28, 7, 8, 29, 0, 60, 31, 32,
                                     16, 15, 44, 28, 27, 1, 59, 24, 23};
    std::vector<std::pair<Pid, Time>> out;
    Rng rng(0x3e30 + static_cast<std::uint64_t>(n));
    for (int i = 0; i < 300; ++i) {
      const Pid p = i % 3 == 0
                        ? static_cast<Pid>(rng.below(static_cast<std::uint64_t>(n)))
                        : hot[static_cast<std::size_t>(i) % hot.size()];
      const Time t =
          i % 2 == 0 ? jumps[static_cast<std::size_t>(i / 2) % jumps.size()]
                     : static_cast<Time>(rng.below(kHorizon + 1));
      out.emplace_back(p, t);
    }
    return out;
  }

  /// The key a draw is filed under, with the shape read off the answer:
  /// benign quorums hold the kernel (the smallest correct process),
  /// adversarial ones are faulty-only and never do.
  std::tuple<Pid, Time, bool, bool> key(Pid p, Time t, const FdValue& v) const {
    const Time window = t / GetParam().hold;
    return {p, window, t >= kStabilize, v.quorum().contains(fp_.correct().min())};
  }

  FailurePattern fp_;
};

TEST_P(QuorumMemoTest, InterleavedQueriesMatchAFreshOracle) {
  for (const Subject& s : subjects()) {
    const auto oracle = s.make();
    for (const auto& [p, t] : queries()) {
      const auto fresh = s.make();
      EXPECT_EQ(oracle->value(p, t), fresh->value(p, t))
          << s.name << " p=" << p << " t=" << t;
    }
  }
}

TEST_P(QuorumMemoTest, RunOrderDrawsEachKeyOnce) {
  // In a run every process's clock only moves forward, so each
  // (p, window, stable, shape) key is drawn exactly once.
  for (const Subject& s : subjects()) {
    const auto oracle = s.make();
    std::set<std::tuple<Pid, Time, bool, bool>> keys;
    for (Time t = 0; t <= kHorizon; ++t) {
      for (Pid p = 0; p < GetParam().n; ++p) {
        keys.insert(key(p, t, oracle->value(p, t)));
      }
    }
    EXPECT_EQ(s.draws(*oracle), keys.size()) << s.name;
  }
}

/// Hold beyond the horizon: the whole run is one window.
class QuorumMemoOneWindow : public QuorumMemoTest {};

TEST_P(QuorumMemoOneWindow, DrawsEachKeyOnceInAnyOrder) {
  // Each (p, shape, stable) slot is drawn once, however the queries jump,
  // and replayed ever after.
  for (const Subject& s : subjects()) {
    const auto oracle = s.make();
    std::set<std::tuple<Pid, Time, bool, bool>> keys;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& [p, t] : queries()) {
        keys.insert(key(p, t, oracle->value(p, t)));
      }
    }
    EXPECT_EQ(s.draws(*oracle), keys.size()) << s.name;
  }
}

std::vector<MemoParam> memo_params() {
  std::vector<MemoParam> out;
  for (const Pid n : {5, 64, 65, 128}) {
    for (const Time hold : {Time{1}, Time{8}, kHorizon + 1}) {
      out.push_back({n, hold});
    }
  }
  return out;
}

std::string memo_name(const testing::TestParamInfo<MemoParam>& info) {
  return "n" + std::to_string(info.param.n) + "_hold" +
         std::to_string(info.param.hold);
}

INSTANTIATE_TEST_SUITE_P(Memo, QuorumMemoTest,
                         testing::ValuesIn(memo_params()), memo_name);

INSTANTIATE_TEST_SUITE_P(Memo, QuorumMemoOneWindow,
                         testing::Values(MemoParam{5, kHorizon + 1},
                                         MemoParam{64, kHorizon + 1},
                                         MemoParam{65, kHorizon + 1},
                                         MemoParam{128, kHorizon + 1}),
                         memo_name);

TEST(QuorumMemo, ReplaysWithinAWindowAndRedrawsOnAnother) {
  QuorumMemo memo(3, 2);
  int calls = 0;
  const auto draw = [&] {
    ++calls;
    return ProcessSet::single(calls % 3);
  };
  const ProcessSet first = memo.get(1, 4, false, 0, draw);
  EXPECT_EQ(memo.get(1, 4, false, 0, draw), first);
  EXPECT_EQ(calls, 1);
  // Other stable flag, shape or process: own slots, the first one survives.
  (void)memo.get(1, 4, true, 0, draw);
  (void)memo.get(1, 4, false, 1, draw);
  (void)memo.get(2, 4, false, 0, draw);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(memo.get(1, 4, false, 0, draw), first);
  EXPECT_EQ(calls, 4);
  // A new window redraws.
  (void)memo.get(1, 5, false, 0, draw);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(memo.draws(), 5u);
}

}  // namespace
}  // namespace nucon
