// Sweep/bench reports (obs/report.hpp): schema validity of everything the
// runner emits, and the determinism contract the BENCH_*.json trajectory
// depends on — the report body (timings excluded) is bit-identical for
// any thread count, for each of the sweep shapes the benches run (E5d,
// E6d, E7b, scaled down).
#include "obs/report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep.hpp"

namespace nucon {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// E5d shape, scaled down: anuc across (n, faults) cells, a few seeds.
exp::SweepGrid e5d_small() {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kAnuc};
  grid.ns = {3, 5};
  grid.fault_counts = {0, 1};
  grid.stabilizes = {80};
  grid.seed_begin = 1;
  grid.seed_count = 3;
  grid.max_steps = 60'000;
  return grid;
}

/// E6d shape, scaled down: the §6.3 family under the naive algorithm.
exp::SweepGrid e6_small() {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kNaive};
  grid.ns = {4};
  grid.fault_counts = {1};
  grid.stabilizes = {900};
  grid.crash_at = 600;
  grid.seed_begin = 1;
  grid.seed_count = 4;
  grid.max_steps = 60'000;
  return grid;
}

/// E7b shape, scaled down: the oracle-free from-scratch stack.
exp::SweepGrid e7b_small() {
  exp::SweepGrid grid;
  grid.algos = {exp::Algo::kFromScratch};
  grid.ns = {3};
  grid.fault_counts = {0, 1};
  grid.stabilizes = {120};
  grid.seed_begin = 5;
  grid.seed_count = 2;
  grid.max_steps = 300'000;
  return grid;
}

TEST(ObsReportTest, RunnerWritesAValidatingReport) {
  const std::string path = testing::TempDir() + "nucon_report_" +
                           std::to_string(::getpid()) + ".json";
  exp::SweepRunner runner(2);
  runner.set_report_path(path);
  const exp::SweepResult result = runner.run(e5d_small());
  EXPECT_GT(result.aggregate.runs, 0);

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  const auto problem = obs::validate_report_json(json);
  EXPECT_FALSE(problem.has_value()) << *problem;

  // One section per grid cell plus the "total" section.
  const std::size_t cells = 4;  // 2 ns x 2 fault counts
  std::size_t sections = 0;
  for (std::size_t at = json.find("{\"name\":"); at != std::string::npos;
       at = json.find("{\"name\":", at + 1)) {
    ++sections;
  }
  EXPECT_EQ(sections, cells + 1);
  EXPECT_NE(json.find("\"total\""), std::string::npos);

  std::remove(path.c_str());
}

TEST(ObsReportTest, ReportBodyIsBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion behind every BENCH_*.json: for each sweep
  // shape the benches run, the folded report (timings excluded) from a
  // 1-thread execution equals the 8-thread one bit for bit.
  struct Shape {
    const char* name;
    exp::SweepGrid grid;
  };
  const Shape shapes[] = {
      {"E5d", e5d_small()}, {"E6d", e6_small()}, {"E7b", e7b_small()}};
  for (const Shape& shape : shapes) {
    const exp::SweepResult r1 = exp::SweepRunner(1).run(shape.grid);
    const exp::SweepResult r8 = exp::SweepRunner(8).run(shape.grid);

    obs::BenchReport a, b;
    a.name = b.name = shape.name;
    a.sweeps.push_back(obs::section_of(shape.name, "grid", r1));
    b.sweeps.push_back(obs::section_of(shape.name, "grid", r8));
    // Timings differ between executions by definition; everything else
    // may not.
    a.timings["execute"] = r1.wall_seconds;
    b.timings["execute"] = r8.wall_seconds;

    const std::string ja = obs::report_json(a, /*include_timings=*/false);
    const std::string jb = obs::report_json(b, /*include_timings=*/false);
    EXPECT_EQ(ja, jb) << shape.name
                      << " report differs between 1 and 8 threads";
    EXPECT_FALSE(obs::validate_report_json(ja).has_value());
    // And the timing-free body must not leak wall-clock fields at all.
    EXPECT_EQ(ja.find("wall_seconds"), std::string::npos);
    EXPECT_EQ(ja.find("timings"), std::string::npos);
  }
}

TEST(ObsReportTest, SectionOfMatchesAggregateCounts) {
  const exp::SweepResult result = exp::SweepRunner(2).run(e6_small());
  const obs::SweepSection s = obs::section_of("e6", "naive family", result);
  EXPECT_EQ(s.runs, result.aggregate.runs);
  EXPECT_EQ(s.undecided, result.aggregate.undecided);
  EXPECT_EQ(s.uniform_violations, result.aggregate.uniform_violations);
  EXPECT_EQ(s.nonuniform_violations, result.aggregate.nonuniform_violations);
  EXPECT_EQ(s.expectation_failures, result.aggregate.expectation_failures);
  EXPECT_DOUBLE_EQ(s.mean_decide_round, result.aggregate.decide_rounds.mean());
  EXPECT_EQ(s.metrics, result.aggregate.metrics);

  // section_of_jobs over ALL jobs folds to the same counts.
  std::vector<std::size_t> all(result.jobs.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const obs::SweepSection s2 =
      obs::section_of_jobs("e6", "naive family", result.jobs, all);
  EXPECT_EQ(s2.runs, s.runs);
  EXPECT_EQ(s2.undecided, s.undecided);
  EXPECT_EQ(s2.uniform_violations, s.uniform_violations);
  EXPECT_EQ(s2.nonuniform_violations, s.nonuniform_violations);
  EXPECT_DOUBLE_EQ(s2.mean_decide_round, s.mean_decide_round);
  EXPECT_EQ(s2.metrics, s.metrics);
}

TEST(ObsReportTest, MarkdownRendererCoversTablesAndSweeps) {
  obs::BenchReport report;
  report.name = "E99";
  report.tables.push_back(
      obs::TableSection{"demo table", {"col_a", "col_b"}, {{"1", "2"}}});
  report.sweeps.push_back(
      obs::section_of("cell-0", "spec", exp::SweepRunner(2).run(e5d_small())));
  const std::string md = obs::report_markdown(report);
  EXPECT_NE(md.find("## E99"), std::string::npos);
  EXPECT_NE(md.find("### demo table"), std::string::npos);
  EXPECT_NE(md.find("| col_a | col_b |"), std::string::npos);
  EXPECT_NE(md.find("cell-0"), std::string::npos);
}

TEST(ObsReportTest, ValidatorRejectsBrokenDocuments) {
  EXPECT_TRUE(obs::validate_report_json("").has_value());
  EXPECT_TRUE(obs::validate_report_json("not json").has_value());
  EXPECT_TRUE(obs::validate_report_json("{\"v\":99,\"name\":\"x\","
                                        "\"tables\":[],\"sweeps\":[]}")
                  .has_value());
  EXPECT_TRUE(
      obs::validate_report_json("{\"v\":1,\"tables\":[],\"sweeps\":[]}")
          .has_value());
  // Sections are checked per element: a sweep missing one counter, or a
  // profile that is not an object, is named in the diagnostic.
  const auto missing = obs::validate_report_json(
      "{\"v\":2,\"name\":\"x\",\"tables\":[],\"sweeps\":[{\"name\":\"s\","
      "\"spec\":\"\",\"runs\":1}]}");
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("sweep section 0 missing \"undecided\""),
            std::string::npos)
      << *missing;
  EXPECT_TRUE(obs::validate_report_json("{\"v\":2,\"name\":\"x\",\"tables\":[],"
                                        "\"sweeps\":[],\"profiles\":[7]}")
                  .has_value());
  // Hostile nesting gets a diagnostic, not a stack overflow.
  const auto deep = obs::validate_report_json(std::string(2'000'000, '['));
  ASSERT_TRUE(deep.has_value());
  EXPECT_NE(deep->find("nesting"), std::string::npos) << *deep;
  // A minimal conforming document passes.
  obs::BenchReport empty;
  empty.name = "empty";
  EXPECT_FALSE(
      obs::validate_report_json(obs::report_json(empty)).has_value());
}

}  // namespace
}  // namespace nucon
