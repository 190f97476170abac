// A_nuc correctness sweeps (paper Theorem 6.27): termination, validity and
// nonuniform agreement under (Omega, Sigma^nu+), across system sizes,
// fault counts, adversarial faulty-quorum behaviors and seeds — including
// environments with a correct minority, where majority-based algorithms
// cannot terminate.
#include "core/anuc.hpp"

#include <gtest/gtest.h>

#include "algo/naive_sigma_nu.hpp"
#include "consensus_test_util.hpp"
#include "exp/sweep.hpp"

namespace nucon {
namespace {

using testutil::SweepParam;

constexpr Time kStabilize = 120;
constexpr std::int64_t kMaxSteps = 120'000;

class AnucSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(AnucSweep, SolvesNonuniformConsensusUnderAdversarialOracle) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  auto oracle = testutil::omega_sigma_nu_plus(fp, kStabilize, GetParam().seed);

  SchedulerOptions opts;
  opts.seed = GetParam().seed;
  opts.max_steps = kMaxSteps;
  const auto stats =
      run_consensus(fp, oracle.top(), make_anuc(GetParam().n),
                    testutil::mixed_proposals(GetParam().n), opts);

  EXPECT_TRUE(stats.all_correct_decided) << fp.to_string();
  EXPECT_TRUE(stats.verdict.termination) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.validity) << stats.verdict.detail;
  EXPECT_TRUE(stats.verdict.nonuniform_agreement) << stats.verdict.detail;
}

TEST_P(AnucSweep, UnanimousProposalsDecideTheProposedValue) {
  const FailurePattern fp = testutil::sweep_pattern(GetParam(), kStabilize - 20);
  auto oracle =
      testutil::omega_sigma_nu_plus(fp, kStabilize, GetParam().seed + 500);

  SchedulerOptions opts;
  opts.seed = GetParam().seed + 500;
  opts.max_steps = kMaxSteps;
  const std::vector<Value> sevens(static_cast<std::size_t>(GetParam().n), 7);
  const auto stats =
      run_consensus(fp, oracle.top(), make_anuc(GetParam().n), sevens, opts);

  ASSERT_TRUE(stats.all_correct_decided);
  for (Pid p : fp.correct()) {
    EXPECT_EQ(stats.decisions[static_cast<std::size_t>(p)], 7);
  }
}

std::vector<SweepParam> anuc_params() {
  std::vector<SweepParam> out;
  for (Pid n : {2, 3, 4, 5, 6}) {
    for (Pid faults = 0; faults < n; ++faults) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        out.push_back({n, faults, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AnucSweep, testing::ValuesIn(anuc_params()),
                         testutil::sweep_name);

TEST(Anuc, ToleratesCorrectMinority) {
  // 1 correct out of 5: impossible for majority-based algorithms, fine for
  // (Omega, Sigma^nu+).
  FailurePattern fp(5);
  for (Pid p = 1; p < 5; ++p) fp.set_crash(p, 40 + 10 * p);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 150, 9);

  SchedulerOptions opts;
  opts.seed = 9;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(5),
                                   testutil::mixed_proposals(5), opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, NoFailuresFastPath) {
  const FailurePattern fp(4);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 0, 11);
  SchedulerOptions opts;
  opts.seed = 11;
  opts.max_steps = 60'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(4),
                                   {5, 5, 9, 9}, opts);
  EXPECT_TRUE(stats.all_correct_decided);
  EXPECT_TRUE(stats.verdict.solves_nonuniform());
  // With an immediately-stable oracle the decision lands within few rounds.
  EXPECT_LE(stats.decide_round, 6);
}

TEST(Anuc, MultivaluedProposals) {
  const FailurePattern fp(5);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 50, 13);
  SchedulerOptions opts;
  opts.seed = 13;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(5),
                                   {10, 20, 30, 40, 50}, opts);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, BenignFaultyBehaviorAlsoWorks) {
  FailurePattern fp(4);
  fp.set_crash(0, 60);  // crash the would-be kernel/leader
  auto oracle = testutil::omega_sigma_nu_plus(fp, 100, 17,
                                              FaultyQuorumBehavior::kBenign);
  SchedulerOptions opts;
  opts.seed = 17;
  opts.max_steps = 120'000;
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(4),
                                   testutil::mixed_proposals(4), opts);
  EXPECT_TRUE(stats.verdict.solves_nonuniform()) << stats.verdict.detail;
}

TEST(Anuc, DecisionIsIrrevocable) {
  const FailurePattern fp(3);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 0, 19);
  SchedulerOptions opts;
  opts.seed = 19;
  opts.max_steps = 20'000;
  // Run far beyond the first decision (no early stop).
  opts.stop_when = [](const auto&) { return false; };

  std::vector<std::optional<Value>> first_decision(3);
  opts.on_step = [&first_decision](
                     const StepRecord& rec,
                     const std::vector<std::unique_ptr<Automaton>>& all) {
    const auto* c = dynamic_cast<const ConsensusAutomaton*>(
        all[static_cast<std::size_t>(rec.p)].get());
    const auto d = c->decision();
    auto& first = first_decision[static_cast<std::size_t>(rec.p)];
    if (d && !first) first = d;
    if (d && first) EXPECT_EQ(d, first);  // never changes once set
  };
  const auto stats = run_consensus(fp, oracle.top(), make_anuc(3),
                                   {0, 1, 1}, opts);
  for (Pid p = 0; p < 3; ++p) {
    EXPECT_EQ(stats.decisions[static_cast<std::size_t>(p)],
              first_decision[static_cast<std::size_t>(p)]);
  }
}

TEST(AnucAblation, WithoutDistrustAgreementBreaks) {
  // Removing the distrust test (Fig. 4 lines 18/28) reverts A_nuc to a
  // contaminable algorithm: the adversarial family finds violations.
  const ContaminationSetup setup;
  const AnucOptions no_distrust{.use_distrust = false,
                                .use_quorum_awareness = true};
  const int violations = count_nonuniform_violations(
      setup, make_anuc(setup.n, no_distrust), 300, /*use_sigma_nu_plus=*/true);
  EXPECT_GT(violations, 0);
}

TEST(AnucAblation, FullAlgorithmSurvivesTheSameSeeds) {
  const ContaminationSetup setup;
  const int violations = count_nonuniform_violations(
      setup, make_anuc(setup.n), 300, /*use_sigma_nu_plus=*/true);
  EXPECT_EQ(violations, 0);
}

TEST(AnucAblation, AblationsDoNotAffectLiveness) {
  // Both ablated variants still terminate under benign conditions; the
  // mechanisms are safety devices.
  for (const AnucOptions options :
       {AnucOptions{.use_distrust = false, .use_quorum_awareness = true},
        AnucOptions{.use_distrust = true, .use_quorum_awareness = false}}) {
    FailurePattern fp(4);
    fp.set_crash(3, 60);
    auto oracle = testutil::omega_sigma_nu_plus(fp, 100, 31);
    SchedulerOptions opts;
    opts.seed = 31;
    opts.max_steps = 120'000;
    const auto stats = run_consensus(fp, oracle.top(), make_anuc(4, options),
                                     testutil::mixed_proposals(4), opts);
    EXPECT_TRUE(stats.all_correct_decided);
    EXPECT_TRUE(stats.verdict.validity);
  }
}

TEST(Anuc, HistoriesGrowButStayBounded) {
  const FailurePattern fp(4);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 0, 23);
  SchedulerOptions opts;
  opts.seed = 23;
  opts.max_steps = 30'000;
  SimResult sim = simulate_consensus(fp, oracle.top(), make_anuc(4),
                                     {0, 0, 1, 1}, opts);
  for (Pid p = 0; p < 4; ++p) {
    const auto* a = dynamic_cast<const Anuc*>(
        sim.automata[static_cast<std::size_t>(p)].get());
    ASSERT_NE(a, nullptr);
    EXPECT_GT(a->history().size(), 0u);
    // At most n * 2^n distinct (process, quorum) entries for n=4.
    EXPECT_LE(a->history().size(), 4u * 16u);
    EXPECT_GT(a->distrust_calls(), 0);
  }
}

TEST(Anuc, DecodeMemoKeepsOnlyLiveBroadcasts) {
  // A_nuc at n=128 post-GST (the anuc-wide regime) fills this thread's
  // decode memo with thousands of LEAD/PROP parses, each pinning a payload
  // and its decoded history. None of those buffers outlives the run, so a
  // following small run must evict them all and hold only its own.
  exp::SweepPoint wide;
  wide.n = 128;
  wide.max_steps = 40LL * wide.n * wide.n;
  wide.hold = wide.max_steps;
  ASSERT_TRUE(exp::run_point(wide).verdict.solves_nonuniform());
  const std::size_t after_wide = Anuc::decode_memo_size();

  const FailurePattern fp(4);
  auto oracle = testutil::omega_sigma_nu_plus(fp, 0, 23);
  SchedulerOptions opts;
  opts.seed = 23;
  opts.max_steps = 30'000;
  SimResult sim = simulate_consensus(fp, oracle.top(), make_anuc(4),
                                     {0, 0, 1, 1}, opts);
  // Each round, each process broadcasts one LEAD and one PROP.
  std::size_t small_broadcasts = 0;
  for (const auto& automaton : sim.automata) {
    const auto* a = dynamic_cast<const Anuc*>(automaton.get());
    ASSERT_NE(a, nullptr);
    small_broadcasts += 2 * static_cast<std::size_t>(a->round());
  }
  EXPECT_GT(after_wide, small_broadcasts);
  EXPECT_GT(Anuc::decode_memo_size(), 0u);
  EXPECT_LE(Anuc::decode_memo_size(), small_broadcasts);
}


/// A_nuc that, before a step it takes while waiting in kAwaitReports or
/// kAwaitProposals, moves into a fresh automaton through save_state /
/// restore_state, so the step runs on rebuilt derived state (the sender
/// bitmaps, the last-inserted quorum, the imported set). The phase is read
/// off the last LEAD/REP/PROP the automaton sent (tags 1/2/3 enter
/// kAwaitLead/kAwaitReports/kAwaitProposals); it restores on every
/// `stride`-th waiting step.
class RestoringAnuc final : public ConsensusAutomaton {
 public:
  struct Counts {
    int reports = 0;
    int proposals = 0;
  };

  RestoringAnuc(Pid self, Value proposal, Pid n, int stride, Counts& counts)
      : self_(self), proposal_(proposal), n_(n), stride_(stride),
        counts_(counts), inner_(std::make_unique<Anuc>(self, proposal, n)) {}

  void step(const Incoming* in, const FdValue& d,
            std::vector<Outgoing>& out) override {
    if (phase_ != 0 && waiting_steps_++ % stride_ == 0) {
      ++(phase_ == 1 ? counts_.reports : counts_.proposals);
      ByteWriter w;
      ASSERT_TRUE(inner_->save_state(w));
      const Bytes state = w.take();
      ByteReader header(state);
      (void)header.svarint();  // x
      (void)header.uvarint();  // round
      ASSERT_EQ(header.u8(), phase_);
      auto fresh = std::make_unique<Anuc>(self_, proposal_, n_);
      ASSERT_TRUE(fresh->restore(state));
      inner_ = std::move(fresh);
    }
    const std::size_t first = out.size();
    inner_->step(in, d, out);
    for (std::size_t i = first; i < out.size(); ++i) {
      const std::uint8_t tag = out[i].payload.get().front();
      if (tag >= 1 && tag <= 3) phase_ = tag - 1;
    }
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return inner_->decision();
  }
  [[nodiscard]] bool save_state(ByteWriter& w) const override {
    return inner_->save_state(w);
  }

 private:
  Pid self_;
  Value proposal_;
  Pid n_;
  int stride_;
  Counts& counts_;
  std::unique_ptr<Anuc> inner_;
  std::uint8_t phase_ = 0;
  int waiting_steps_ = 0;
};

TEST(Anuc, RestoreMidPhaseContinuesIdentically) {
  for (Pid n : {5, 66}) {
    FailurePattern fp(n);
    fp.set_crash(1, 4 * n);
    std::vector<Value> proposals;
    for (Pid p = 0; p < n; ++p) proposals.push_back(p % 2);
    RestoringAnuc::Counts counts;
    const std::int64_t budget = 40LL * n * n;
    const auto run = [&](const ConsensusFactory& make) {
      // Noisy until 6n, then one quorum per process for the rest of the
      // run, so both sizes decide within the budget.
      OmegaOracle omega(fp, OmegaOptions{.stabilize_at = 6 * n, .seed = 31});
      SigmaNuPlusOptions so;
      so.stabilize_at = 6 * n;
      so.seed = 32;
      so.hold = budget;
      SigmaNuPlusOracle sigma(fp, so);
      ComposedOracle oracle(omega, sigma);
      SchedulerOptions opts;
      opts.seed = 31;
      opts.max_steps = budget;
      return simulate_consensus(fp, oracle, make, proposals, opts);
    };
    const SimResult plain = run(make_anuc(n));
    const SimResult restored =
        run([n, &counts](Pid p, Value v) -> std::unique_ptr<ConsensusAutomaton> {
          // Every waiting step at n=5; a sample of them at n=66, where one
          // save_state carries ~n buffered histories.
          return std::make_unique<RestoringAnuc>(p, v, n, n > 64 ? 64 : 1,
                                                 counts);
        });
    ASSERT_TRUE(all_correct_decided(fp, plain.automata)) << "n=" << n;
    EXPECT_GT(counts.reports, 0) << "n=" << n;
    EXPECT_GT(counts.proposals, 0) << "n=" << n;

    EXPECT_EQ(restored.steps_taken, plain.steps_taken);
    EXPECT_EQ(restored.messages_sent, plain.messages_sent);
    EXPECT_EQ(restored.bytes_sent, plain.bytes_sent);
    EXPECT_EQ(restored.metrics, plain.metrics);
    for (Pid p = 0; p < n; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const auto& a = static_cast<const ConsensusAutomaton&>(*plain.automata[i]);
      const auto& b =
          static_cast<const ConsensusAutomaton&>(*restored.automata[i]);
      EXPECT_EQ(a.decision(), b.decision()) << "n=" << n << " p=" << p;
      ByteWriter wa;
      ByteWriter wb;
      ASSERT_TRUE(a.save_state(wa));
      ASSERT_TRUE(b.save_state(wb));
      EXPECT_EQ(wa.take(), wb.take()) << "n=" << n << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace nucon
