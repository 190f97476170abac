// The four benchmark workloads. Each one drives the library only through
// its public entry points (exp::SweepRunner / run_point, the model checker,
// the fuzzer), checks the outputs, and reports:
//
//  * untraced mode: one timed operation after another until the time box
//    closes, with every operation's exact work fingerprint;
//  * traced mode: an untraced reference operation, then the same operation
//    again with the spans of spans.hpp on, the two checked for identical
//    exact counts, plus the per-layer metrics the spans yield.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrunk to well under a second.
  bool tiny = false;
  /// Stop after set-up (the warm-up included); run.py repeats set-up in
  /// fresh processes this way to report the median.
  bool setup_only = false;
  /// CLOCK_MONOTONIC nanoseconds at which the caller spawned this process
  /// (main() defaults it to its own start).
  std::int64_t spawn_ns = 0;
  /// Worker threads: the box's cores, at most 4.
  unsigned threads = 4;
  /// Directory the traced pass writes its span file into ("" = none).
  std::string out_dir;
};

/// Exact counts: deterministic for a given build, seed and size.
using Fingerprint = std::map<std::string, std::int64_t>;

struct Result {
  double setup_s = 0.0;
  /// Wall seconds of each timed operation, and the work items it did
  /// (sweep runs, simulated steps, unique states, fuzz executions).
  std::vector<double> op_seconds;
  std::vector<double> op_items;
  std::string item_unit;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  Fingerprint fingerprint;
  /// The workload's headline figures under their own names, e.g.
  /// runs_per_s on paper-sweep (name -> {value, unit}).
  std::map<std::string, std::pair<double, std::string>> headline;
  /// Per-layer metrics from the traced pass (name -> {value, unit}).
  std::map<std::string, std::pair<double, std::string>> layers;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Result run_workload(const Options& opts);

/// The names run_workload accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
