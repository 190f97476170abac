#include "sim/failure_pattern.hpp"

#include <gtest/gtest.h>

namespace nucon {
namespace {

TEST(FailurePattern, AllCorrectByDefault) {
  const FailurePattern fp(4);
  EXPECT_EQ(fp.n(), 4);
  EXPECT_TRUE(fp.faulty().empty());
  EXPECT_EQ(fp.correct(), ProcessSet::full(4));
  EXPECT_TRUE(fp.crashed_at(1000).empty());
}

TEST(FailurePattern, CrashTimesRespected) {
  FailurePattern fp(3);
  fp.set_crash(1, 10);
  EXPECT_EQ(fp.faulty(), ProcessSet{1});
  EXPECT_EQ(fp.correct(), (ProcessSet{0, 2}));
  EXPECT_TRUE(fp.alive_at(1, 9));
  EXPECT_FALSE(fp.alive_at(1, 10));
  EXPECT_FALSE(fp.alive_at(1, 11));
  EXPECT_TRUE(fp.alive_at(0, 1000000));
}

TEST(FailurePattern, CrashedAtIsMonotone) {
  FailurePattern fp(4);
  fp.set_crash(0, 5);
  fp.set_crash(2, 15);
  EXPECT_EQ(fp.crashed_at(0), ProcessSet{});
  EXPECT_EQ(fp.crashed_at(5), ProcessSet{0});
  EXPECT_EQ(fp.crashed_at(14), ProcessSet{0});
  EXPECT_EQ(fp.crashed_at(15), (ProcessSet{0, 2}));
  // F(t) subset of F(t+1) for every t.
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(fp.crashed_at(t).is_subset_of(fp.crashed_at(t + 1)));
  }
}

TEST(FailurePattern, ConstructorFromVector) {
  const FailurePattern fp(3, {kNeverCrashes, 7, kNeverCrashes});
  EXPECT_EQ(fp.faulty(), ProcessSet{1});
  EXPECT_EQ(fp.crash_time(1), 7);
  EXPECT_EQ(fp.crash_time(0), kNeverCrashes);
}

TEST(FailurePattern, AllFaultyCrashedBy) {
  FailurePattern fp(4);
  EXPECT_EQ(fp.all_faulty_crashed_by(), 0);
  fp.set_crash(1, 10);
  fp.set_crash(3, 30);
  EXPECT_EQ(fp.all_faulty_crashed_by(), 30);
}

TEST(FailurePattern, ToStringMentionsCrashes) {
  FailurePattern fp(3);
  fp.set_crash(2, 9);
  const std::string s = fp.to_string();
  EXPECT_NE(s.find("2@9"), std::string::npos);
}

TEST(FailurePattern, AliveAtMatchesCrashedAt) {
  // alive_at reads p's crash time alone; it must agree with F(t) for every
  // (p, t), across word boundaries of the process set.
  for (Pid n : {5, 65, 128}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Environment env{n, n - 1};
    for (int trial = 0; trial < 8; ++trial) {
      const FailurePattern fp = env.sample(rng, 40);
      for (Time t = 0; t <= 42; ++t) {
        const ProcessSet crashed = fp.crashed_at(t);
        for (Pid p = 0; p < n; ++p) {
          ASSERT_EQ(fp.alive_at(p, t), !crashed.contains(p))
              << fp.to_string() << " p=" << p << " t=" << t;
        }
      }
    }
  }
}

TEST(Environment, MajorityCorrectPredicate) {
  EXPECT_TRUE((Environment{5, 2}).majority_correct());
  EXPECT_FALSE((Environment{4, 2}).majority_correct());
  EXPECT_TRUE((Environment{4, 1}).majority_correct());
  EXPECT_FALSE((Environment{2, 1}).majority_correct());
}

TEST(Environment, SampleRespectsFaultBound) {
  const Environment env{6, 3};
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const FailurePattern fp = env.sample(rng, 100);
    EXPECT_LE(fp.faulty().size(), 3);
    EXPECT_EQ(fp.n(), 6);
    for (Pid p : fp.faulty()) {
      EXPECT_GE(fp.crash_time(p), 0);
      EXPECT_LE(fp.crash_time(p), 100);
    }
  }
}

TEST(Environment, SampleExactFaults) {
  const Environment env{5, 4};
  Rng rng(7);
  for (Pid f = 0; f <= 4; ++f) {
    const FailurePattern fp = env.sample(rng, f, 50);
    EXPECT_EQ(fp.faulty().size(), f);
  }
}

TEST(Environment, SampleCoversDifferentVictims) {
  const Environment env{4, 2};
  Rng rng(3);
  ProcessSet ever_faulty;
  for (int i = 0; i < 100; ++i) {
    ever_faulty |= env.sample(rng, 2, 10).faulty();
  }
  EXPECT_EQ(ever_faulty, ProcessSet::full(4));
}

}  // namespace
}  // namespace nucon
