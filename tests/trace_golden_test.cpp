// Golden-file pin of the JSONL trace schema.
//
// tests/golden/naive_contamination_n4_seed4.trace.jsonl is the committed
// byte-exact trace of one fixed SweepPoint — a small naive-algorithm
// contamination run (§6.3: two correct processes decide differently).
// Re-executing the point must reproduce it byte for byte; any schema or
// determinism change shows up as a diff against a reviewable file.
//
// To regenerate after an *intentional* schema change:
//   nucon_explore --algo naive --n 4 --faults 1 --seed 4 --stabilize 900
//     --crash-at 600 --max-steps 60000 --trace <golden path>  (one line)
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/sweep.hpp"
#include "trace/trace_reader.hpp"

#ifndef NUCON_TEST_DATA_DIR
#error "NUCON_TEST_DATA_DIR must point at tests/golden"
#endif

namespace nucon {
namespace {

exp::SweepPoint golden_point() {
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kNaive;
  pt.n = 4;
  pt.faults = 1;
  pt.stabilize = 900;
  pt.crash_at = 600;
  pt.max_steps = 60'000;
  pt.seed = 4;
  return pt;
}

std::string golden_path() {
  return std::string(NUCON_TEST_DATA_DIR) +
         "/naive_contamination_n4_seed4.trace.jsonl";
}

TEST(TraceGoldenTest, RecordedTraceMatchesCommittedGoldenByteForByte) {
  std::ifstream f(golden_path(), std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file: " << golden_path();
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string golden = buf.str();
  ASSERT_FALSE(golden.empty());

  const exp::TracedRun traced = exp::trace_point(golden_point());
  if (traced.jsonl != golden) {
    // Byte mismatch: localize it to a line for the failure message.
    std::istringstream got_lines(traced.jsonl);
    std::istringstream want_lines(golden);
    std::string got, want;
    std::size_t line = 0;
    while (true) {
      ++line;
      const bool has_got = static_cast<bool>(std::getline(got_lines, got));
      const bool has_want = static_cast<bool>(std::getline(want_lines, want));
      if (!has_got && !has_want) break;
      ASSERT_EQ(has_got, has_want) << "trace length differs at line " << line;
      ASSERT_EQ(got, want) << "first differing line: " << line;
    }
    FAIL() << "traces differ in bytes but not line content (line endings?)";
  }
}

TEST(TraceGoldenTest, GoldenTraceCarriesTheSchemaThisReaderUnderstands) {
  std::ifstream f(golden_path(), std::ios::binary);
  ASSERT_TRUE(f.good());
  std::ostringstream buf;
  buf << f.rdbuf();

  trace::ParseError error;
  const auto parsed = trace::parse_trace(buf.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error.to_string();
  EXPECT_EQ(parsed->version, trace::kTraceSchemaVersion);
  EXPECT_EQ(parsed->n, 4);
  EXPECT_EQ(parsed->expect, "none");
  // The committed run is a genuine contamination witness.
  const trace::DivergenceReport report = trace::find_divergence(*parsed);
  EXPECT_TRUE(report.nonuniform.found);
  EXPECT_TRUE(parsed->is_correct(report.nonuniform.p));
  EXPECT_TRUE(parsed->is_correct(report.nonuniform.earlier_p));
}

TEST(TraceGoldenTest, ReaderRejectsUnknownSchemaVersions) {
  trace::ParseError error;
  const std::string future =
      "{\"k\":\"meta\",\"v\":2,\"n\":3,\"correct\":[0,1,2]}\n";
  EXPECT_FALSE(trace::parse_trace(future, &error).has_value());
  EXPECT_NE(error.message.find("version"), std::string::npos);
  EXPECT_EQ(error.line, 1u);

  // Legacy traces without a "v" field are version 1 by definition.
  const std::string legacy = "{\"k\":\"meta\",\"n\":3,\"correct\":[0,1,2]}\n";
  const auto parsed = trace::parse_trace(legacy, &error);
  ASSERT_TRUE(parsed.has_value()) << error.to_string();
  EXPECT_EQ(parsed->version, 1);
}

TEST(TraceGoldenTest, ParseErrorsCarryLineNumbers) {
  trace::ParseError error;
  const std::string broken =
      "{\"k\":\"meta\",\"v\":1,\"n\":3,\"correct\":[0,1,2]}\n"
      "{\"k\":\"step\",\"t\":1,\"p\":0}\n"
      "this is not an event\n";
  EXPECT_FALSE(trace::parse_trace(broken, &error).has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_FALSE(error.to_string().empty());
}

TEST(TraceGoldenTest, ParseRejectsOutOfRangeProcessIdsWithLineNumbers) {
  // Every pid the reader stores ends up in a ProcessSet or indexes a
  // per-process table, so n and each pid are range-checked on the line
  // that carries them.
  const std::string meta = "{\"k\":\"meta\",\"v\":1,\"n\":3,\"correct\":[0,1]}\n";
  struct Case {
    const char* what;
    std::string jsonl;
    std::size_t line;
  };
  const Case cases[] = {
      {"n = 0", "{\"k\":\"meta\",\"n\":0,\"correct\":[]}\n", 1},
      {"n above kMaxProcesses",
       "{\"k\":\"meta\",\"n\":5000,\"correct\":[0]}\n", 1},
      {"negative correct pid", "{\"k\":\"meta\",\"n\":3,\"correct\":[-3]}\n",
       1},
      {"correct pid >= n", "{\"k\":\"meta\",\"n\":3,\"correct\":[0,5000]}\n",
       1},
      {"crash pid >= n",
       "{\"k\":\"meta\",\"n\":3,\"correct\":[0,1],\"crashes\":[{\"p\":3,"
       "\"at\":10}]}\n",
       1},
      {"event p >= n", meta + "{\"k\":\"decide\",\"t\":4,\"p\":7,\"value\":1}\n",
       2},
      {"event p < 0", meta + "{\"k\":\"decide\",\"t\":4,\"p\":-1,\"value\":1}\n",
       2},
      {"send to >= n",
       meta + "{\"k\":\"send\",\"t\":1,\"p\":0,\"to\":9,\"seq\":1,\"bytes\":4}\n",
       2},
      {"deliver from >= n",
       meta + "{\"k\":\"step\",\"t\":1,\"p\":0}\n"
              "{\"k\":\"deliver\",\"t\":2,\"p\":1,\"from\":3,\"seq\":1,"
              "\"delay\":1}\n",
       3},
      {"step recv.from >= n",
       meta + "{\"k\":\"step\",\"t\":1,\"p\":0,\"recv\":{\"from\":4,\"seq\":1}}\n",
       2},
      {"pid beyond int64", meta + "{\"k\":\"step\",\"t\":1,\"p\":99999999999999999999}\n",
       2},
      {"decide without p", meta + "{\"k\":\"decide\",\"t\":4,\"value\":1}\n", 2},
      {"event before meta", "{\"k\":\"step\",\"t\":1,\"p\":0}\n" + meta, 1},
  };
  for (const Case& c : cases) {
    trace::ParseError error;
    EXPECT_FALSE(trace::parse_trace(c.jsonl, &error).has_value()) << c.what;
    EXPECT_EQ(error.line, c.line) << c.what << ": " << error.to_string();
    EXPECT_FALSE(error.message.empty()) << c.what;
  }
}

}  // namespace
}  // namespace nucon
