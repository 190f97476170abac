// Trace & metrics layer: traced runs must be byte-identical wherever they
// execute (serial, worker thread, replay), the sweep runner's failure
// auto-attach must write the same JSONL for any thread count, the reader
// must round-trip the recorder's output, and divergence detection must
// locate the first conflicting decision the harness verdict reports.
#include "trace/trace_recorder.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "exp/sweep.hpp"
#include "trace/metrics.hpp"
#include "trace/trace_reader.hpp"

namespace nucon {
namespace {

exp::SweepPoint quick_point(std::uint64_t seed = 3) {
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kAnuc;
  pt.n = 4;
  pt.faults = 1;
  pt.stabilize = 80;
  pt.seed = seed;
  pt.max_steps = 60'000;
  return pt;
}

/// The failing grid of sweep_test's replay-artifact test: mr-majority with
/// 3 of 5 crashed early can never decide, so every point fails its
/// expectation and (with a trace dir set) gets a trace attached.
exp::SweepGrid failing_grid() {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kMrMajority};
  grid.ns = {5};
  grid.fault_counts = {3};
  grid.stabilizes = {40};
  grid.crash_at = 5;
  grid.seed_begin = 1;
  grid.seed_count = 3;
  grid.max_steps = 4'000;
  return grid;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(TraceRecorderTest, TracedRunIsByteIdenticalAcrossExecutions) {
  const exp::TracedRun a = exp::trace_point(quick_point());
  const exp::TracedRun b = exp::trace_point(quick_point());
  EXPECT_FALSE(a.jsonl.empty());
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.stats.metrics, b.stats.metrics);
}

TEST(TraceRecorderTest, TracingDoesNotPerturbTheRun) {
  // A recorder is an observer: the traced run's stats must equal the
  // untraced run's bit for bit (same seed, same schedule, same verdict).
  const exp::SweepPoint pt = quick_point();
  const ConsensusRunStats plain = exp::run_point(pt);
  const exp::TracedRun traced = exp::trace_point(pt);
  EXPECT_EQ(traced.stats.decisions, plain.decisions);
  EXPECT_EQ(traced.stats.steps, plain.steps);
  EXPECT_EQ(traced.stats.messages_sent, plain.messages_sent);
  EXPECT_EQ(traced.stats.bytes_sent, plain.bytes_sent);
  EXPECT_EQ(traced.stats.decide_round, plain.decide_round);
  EXPECT_EQ(traced.stats.metrics, plain.metrics);
}

TEST(TraceRecorderTest, SweepFailureTracesAreByteIdenticalAcrossThreadCounts) {
  const exp::SweepGrid grid = failing_grid();
  const std::string dir1 =
      testing::TempDir() + "nucon_trace_t1_" + std::to_string(::getpid());
  const std::string dir8 =
      testing::TempDir() + "nucon_trace_t8_" + std::to_string(::getpid());

  exp::SweepRunner r1(1);
  r1.set_trace_dir(dir1);
  exp::SweepRunner r8(8);
  r8.set_trace_dir(dir8);
  const exp::SweepResult s1 = r1.run(grid);
  const exp::SweepResult s8 = r8.run(grid);

  ASSERT_EQ(s1.aggregate.failures.size(), 3u);
  ASSERT_EQ(s1.aggregate.failure_trace_paths.size(), 3u);
  ASSERT_EQ(s8.aggregate.failure_trace_paths.size(), 3u);

  for (std::size_t i = 0; i < 3; ++i) {
    const std::string bytes1 = slurp(s1.aggregate.failure_trace_paths[i]);
    const std::string bytes8 = slurp(s8.aggregate.failure_trace_paths[i]);
    EXPECT_FALSE(bytes1.empty());
    EXPECT_EQ(bytes1, bytes8) << "trace " << i
                              << " differs between 1 and 8 threads";

    // Each attached trace parses and names the artifact it documents.
    const auto parsed = trace::parse_trace(bytes1);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->artifact,
              s1.aggregate.failures[i].to_string());
    EXPECT_EQ(parsed->n, 5);
    EXPECT_EQ(parsed->expect, "uniform");
    EXPECT_FALSE(parsed->events.empty());
  }

  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);
}

TEST(TraceRecorderTest, NoTraceDirMeansNoAttachedPaths) {
  const exp::SweepResult r = exp::SweepRunner(2).run(failing_grid());
  EXPECT_EQ(r.aggregate.failures.size(), 3u);
  EXPECT_TRUE(r.aggregate.failure_trace_paths.empty());
}

TEST(TraceRecorderTest, ReaderRoundTripsRecorderOutput) {
  const exp::SweepPoint pt = quick_point();
  const exp::TracedRun traced = exp::trace_point(pt);
  const auto parsed = trace::parse_trace(traced.jsonl);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->n, 4);
  EXPECT_EQ(parsed->artifact, exp::ReplayArtifact{pt}.to_string());
  EXPECT_EQ(parsed->expect, "nonuniform");
  EXPECT_FALSE(parsed->events.empty());

  // Event stream sanity: every decide in the trace matches the decisions
  // the harness reported, and A_nuc decides without disagreement.
  int decides = 0;
  for (const trace::ParsedEvent& ev : parsed->events) {
    if (ev.kind != "decide") continue;
    ++decides;
    ASSERT_GE(ev.p, 0);
    ASSERT_LT(ev.p, 4);
    ASSERT_TRUE(ev.value.has_value());
    const auto& decision =
        traced.stats.decisions[static_cast<std::size_t>(ev.p)];
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(*ev.value, *decision);
  }
  EXPECT_GT(decides, 0);
  const trace::DivergenceReport report = trace::find_divergence(*parsed);
  EXPECT_FALSE(report.uniform.found);
  EXPECT_FALSE(report.nonuniform.found);
}

TEST(TraceRecorderTest, DivergenceFinderLocatesTheFirstConflictingDecision) {
  // Hunt a seed where the broken §6.3 substitution makes two *correct*
  // processes disagree (the paper's contamination scenario), then check the
  // trace-level divergence matches the harness verdict.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    exp::SweepPoint pt;
    pt.algo = exp::Algo::kNaive;
    pt.n = 5;
    pt.faults = 1;
    pt.seed = seed;
    pt.max_steps = 50'000;
    const exp::TracedRun traced = exp::trace_point(pt);
    if (traced.stats.verdict.nonuniform_agreement) continue;

    const auto parsed = trace::parse_trace(traced.jsonl);
    ASSERT_TRUE(parsed.has_value());
    const trace::DivergenceReport report = trace::find_divergence(*parsed);
    ASSERT_TRUE(report.nonuniform.found) << "seed " << seed;
    EXPECT_TRUE(report.uniform.found);  // correct-vs-correct implies uniform
    EXPECT_TRUE(parsed->is_correct(report.nonuniform.p));
    EXPECT_TRUE(parsed->is_correct(report.nonuniform.earlier_p));
    EXPECT_NE(report.nonuniform.value, report.nonuniform.earlier_value);
    EXPECT_GE(report.nonuniform.t, report.nonuniform.earlier_t);
    return;
  }
  FAIL() << "no contamination witness in 200 seeds — the naive algorithm "
            "should misbehave well before that";
}

TEST(TraceRecorderTest, StateHashesAreOffByDefaultAndDeterministicWhenOn) {
  trace::TraceRecorder::Options opts;
  opts.state_hashes = true;
  const exp::TracedRun a = exp::trace_point(quick_point(), opts);
  const exp::TracedRun b = exp::trace_point(quick_point(), opts);
  EXPECT_EQ(a.jsonl, b.jsonl);

  const auto with = trace::parse_trace(a.jsonl);
  const auto without = trace::parse_trace(exp::trace_point(quick_point()).jsonl);
  ASSERT_TRUE(with.has_value());
  ASSERT_TRUE(without.has_value());
  const auto count_states = [](const trace::ParsedTrace& t) {
    int k = 0;
    for (const auto& ev : t.events) k += ev.kind == "state";
    return k;
  };
  EXPECT_GT(count_states(*with), 0);
  EXPECT_EQ(count_states(*without), 0);
}

TEST(TraceRecorderTest, StateHashesRoundTripExactlyThroughTheReader) {
  // FNV-1a values are uniform over 64 bits, so about half of them exceed
  // INT64_MAX; each must read back as the exact value the recorder wrote.
  trace::TraceRecorder::Options opts;
  opts.state_hashes = true;
  const auto parsed = trace::parse_trace(exp::trace_point(quick_point(), opts).jsonl);
  ASSERT_TRUE(parsed.has_value());
  int states = 0;
  int above_int64 = 0;
  for (const trace::ParsedEvent& ev : parsed->events) {
    if (ev.kind != "state") continue;
    ++states;
    above_int64 += ev.state_hash > static_cast<std::uint64_t>(
        std::numeric_limits<std::int64_t>::max());
    trace::TraceRecorder again(opts);
    again.on_state_transition(ev.p, ev.t, ev.state_hash);
    EXPECT_EQ(again.jsonl(), ev.raw + "\n");
  }
  EXPECT_GT(states, 0);
  EXPECT_GT(above_int64, 0);
}

TEST(TraceRecorderTest, ParseRejectsTracesWithoutMetaLine) {
  EXPECT_FALSE(trace::parse_trace("").has_value());
  EXPECT_FALSE(trace::parse_trace("{\"k\":\"step\",\"t\":1,\"p\":0}\n").has_value());
  EXPECT_FALSE(trace::parse_trace("not json at all\n").has_value());
}

TEST(TraceRecorderTest, MetricsAccompanyEveryRunEvenUntraced) {
  const ConsensusRunStats stats = exp::run_point(quick_point());
  EXPECT_GT(stats.metrics.counter_value("scheduler.steps"), 0);
  EXPECT_GT(stats.metrics.counter_value("scheduler.delivers"), 0);
  EXPECT_GT(stats.metrics.counter_value("scheduler.sends"), 0);
  EXPECT_GT(stats.metrics.counter_value("consensus.all_correct_decided"), 0);
  EXPECT_EQ(stats.metrics.counter_value("scheduler.steps"),
            static_cast<std::int64_t>(stats.steps));
  const auto& delay = stats.metrics.histograms().at("scheduler.delivery_delay");
  EXPECT_EQ(delay.count(),
            stats.metrics.counter_value("scheduler.delivers"));
  EXPECT_GE(delay.max(), delay.min());
}

TEST(MetricsTest, HistogramQuantilesAndMergeAreExact) {
  trace::Histogram h;
  for (int v = 1; v <= 64; ++v) h.add(v);
  EXPECT_EQ(h.count(), 64);
  EXPECT_EQ(h.sum(), 64 * 65 / 2);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 64);
  // Factor-of-two accuracy: the p50 of 1..64 lives in the (16,32] bucket.
  EXPECT_GE(h.quantile(0.5), 16);
  EXPECT_LE(h.quantile(0.5), 64);
  EXPECT_EQ(h.quantile(1.0), 64);
  EXPECT_EQ(h.quantile(0.0), 1);

  trace::Histogram other;
  other.add(1000);
  h.merge(other);
  EXPECT_EQ(h.count(), 65);
  EXPECT_EQ(h.max(), 1000);

  trace::Histogram sum_ab, a, b;
  for (int v = 0; v < 100; ++v) {
    (v % 2 ? a : b).add(v * 7);
    sum_ab.add(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a, sum_ab);
}

TEST(MetricsTest, RegistryMergeIsCommutativeOnDisjointAndAdditiveOnShared) {
  trace::MetricsRegistry x, y;
  x.counter("shared") = 3;
  x.counter("only_x") = 1;
  y.counter("shared") = 4;
  y.counter("only_y") = 2;
  x.histogram("h").add(8);
  y.histogram("h").add(16);
  x.merge(y);
  EXPECT_EQ(x.counter_value("shared"), 7);
  EXPECT_EQ(x.counter_value("only_x"), 1);
  EXPECT_EQ(x.counter_value("only_y"), 2);
  EXPECT_EQ(x.histograms().at("h").count(), 2);
  EXPECT_EQ(x.histograms().at("h").max(), 16);
  EXPECT_FALSE(x.to_string().empty());
}

}  // namespace
}  // namespace nucon
