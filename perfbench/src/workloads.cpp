#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>

#include "algo/harness.hpp"
#include "check/model_checker.hpp"
#include "core/anuc.hpp"
#include "decorators.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "fuzz/engine.hpp"
#include "spans.hpp"
#include "util/shared_bytes.hpp"

namespace perfbench {
namespace {

using nucon::ConsensusRunStats;
using nucon::Pid;
namespace exp = nucon::exp;

// ---- small helpers ---------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// Folds a 64-bit hash into a fingerprint value (JSON numbers lose
/// precision above 2^53).
std::int64_t hash53(std::uint64_t h) {
  return static_cast<std::int64_t>(h & ((1ULL << 53) - 1));
}

/// Every per-layer metric the traced pass reports, with its unit. Layers a
/// workload does not run report 0.
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"exp.runs", "count"},
      {"exp.execute_s", "s"},
      {"exp.fold_s", "s"},
      {"exp.setup_us_p50", "us"},
      {"exp.run_ms_p50", "ms"},
      {"exp.run_ms_p99", "ms"},
      {"exp.worker_busy_ratio", "ratio"},
      {"sim.steps", "count"},
      {"sim.self_ns_per_step", "ns"},
      {"sim.delivers", "count"},
      {"sim.lambda_steps", "count"},
      {"sim.forced_deliveries", "count"},
      {"sim.shuffled_deliveries", "count"},
      {"sim.undelivered_at_end", "count"},
      {"sim.pending_scan_len_mean", "count"},
      {"fd.queries", "count"},
      {"fd.ns_per_query", "ns"},
      {"core.steps", "count"},
      {"core.ns_per_step", "ns"},
      {"core.msgs_per_decide", "count"},
      {"core.kb_per_decide", "KB"},
      {"core.decide_round", "rounds"},
      {"core.history_quorums_mean", "count"},
      {"core.distrust_calls", "count"},
      {"core.distrust_hit_ratio", "ratio"},
      {"core.save_state_ns", "ns"},
      {"core.restore_ns", "ns"},
      {"core.clone_ns", "ns"},
      {"util.broadcasts", "count"},
      {"util.copied_bytes_per_bcast", "bytes"},
      {"util.shared_ratio", "ratio"},
      {"check.states", "count"},
      {"check.dedup_ratio", "ratio"},
      {"check.por_prune_ratio", "ratio"},
      {"check.reexpanded", "count"},
      {"check.hash_collisions", "count"},
      {"check.peak_depth", "count"},
      {"check.engine_self_s", "s"},
      {"check.bytes_per_state", "bytes"},
      {"check.thread_speedup", "ratio"},
      {"fuzz.execs", "count"},
      {"fuzz.corpus", "count"},
      {"fuzz.unique_states", "count"},
      {"fuzz.divergence_shapes", "count"},
      {"fuzz.finds", "count"},
      {"fuzz.minimize_probes", "count"},
      {"fuzz.admit_ratio", "ratio"},
      {"fuzz.campaign_s", "s"},
      {"fuzz.minimize_s", "s"},
      {"fuzz.exec_us_p50", "us"},
      {"fuzz.exec_us_p99", "us"},
      {"fuzz.coverage_share", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"prof.automaton_step_ns", "ns"},
  };
  return k;
}

/// Sets a per-layer metric; the name must be in the catalog.
void layer(Result& r, const std::string& name, double value) {
  for (const auto& [n, unit] : layer_catalog()) {
    if (name == n) {
      r.layers[name] = {value, unit};
      return;
    }
  }
  throw std::logic_error("per-layer metric not in the catalog: " + name);
}

void init_layers(Result& r) {
  for (const auto& [n, unit] : layer_catalog()) r.layers[n] = {0.0, unit};
}

/// Marks the end of set-up: the process's age since it was spawned.
void end_setup(const Options& o, Result& r) {
  r.setup_s = static_cast<double>(now_ns() - o.spawn_ns) * 1e-9;
}

/// Calls op(0), op(1), ... in blocks of `block` calls, at least `min_ops`
/// times, and stops before a block that would end past the time box (as
/// predicted from the mean time so far).
template <typename Op>
void time_box(const Options& o, int min_ops, int block, Op&& op) {
  const std::int64_t start = now_ns();
  int i = 0;
  while (true) {
    for (int j = 0; j < block; ++j) op(i++);
    const double per_op = seconds_since(start) / i;
    if (i >= min_ops && per_op * (i + block) > o.seconds) break;
  }
}

/// The seed's input block: seed s >= 1 selects block s - 1 (seed 0 reads
/// as seed 1), so seed 1 runs consensus seeds 1, 2, ... of every grid.
std::uint64_t seed_block(const Options& o) { return o.seed == 0 ? 0 : o.seed - 1; }

/// Adds `part` to `f` with every key prefixed (the prefix names the input
/// the counts belong to, so runs on different inputs never compare them).
void merge_prefixed(Fingerprint& f, const std::string& prefix,
                    const Fingerprint& part) {
  for (const auto& [k, v] : part) f[prefix + k] = v;
}

/// Median of items / seconds over the timed operations.
double median_rate(const Result& r) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < r.op_seconds.size(); ++i)
    rates.push_back(r.op_items[i] / r.op_seconds[i]);
  return median(rates);
}

/// Compares two fingerprints; a difference is one failure, named by the
/// first differing key.
void expect_same(Result& r, const Fingerprint& want, const Fingerprint& got,
                 const std::string& what) {
  if (want == got) return;
  std::string diff;
  for (const auto& [k, v] : want) {
    const auto it = got.find(k);
    if (it == got.end() || it->second != v) {
      diff = k + ": " + std::to_string(v) + " vs " +
             (it == got.end() ? std::string("missing")
                              : std::to_string(it->second));
      break;
    }
  }
  if (diff.empty()) diff = "extra keys";
  r.fail(what + " (" + diff + ")");
}

/// Exact-count view of one consensus run, without the two round counters
/// the harness reads by dynamic_cast (a decorated automaton reads 0).
Fingerprint run_fingerprint(const ConsensusRunStats& s) {
  Fingerprint f;
  f["steps"] = static_cast<std::int64_t>(s.steps);
  f["messages"] = static_cast<std::int64_t>(s.messages_sent);
  f["bytes"] = static_cast<std::int64_t>(s.bytes_sent);
  f["end_time"] = s.end_time;
  f["all_decided"] = s.all_correct_decided;
  f["termination"] = s.verdict.termination;
  f["validity"] = s.verdict.validity;
  f["nonuniform_agreement"] = s.verdict.nonuniform_agreement;
  f["uniform_agreement"] = s.verdict.uniform_agreement;
  std::int64_t d = 0;
  for (const auto& v : s.decisions) d = d * 3 + (v ? 1 + (*v & 1) : 0);
  f["decisions"] = d;
  for (const auto& [k, v] : s.metrics.counters()) {
    if (k != "consensus.max_round" && k != "consensus.decide_round") {
      f["m." + k] = v;
    }
  }
  for (const auto& [k, h] : s.metrics.histograms()) {
    f["h." + k + ".count"] = h.count();
    f["h." + k + ".sum"] = h.sum();
  }
  return f;
}

bool meets_expectation(exp::Algo algo, const ConsensusRunStats& s) {
  switch (exp::expectation(algo)) {
    case exp::Expect::kNonuniform:
      return s.verdict.solves_nonuniform();
    case exp::Expect::kUniform:
      return s.verdict.solves_uniform();
    case exp::Expect::kNone:
      return true;
  }
  return true;
}

double peak_rss_bytes() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0;
}

// ---- the rebuilt run_point: one consensus run with the spans on -----------

struct TracedRun {
  ConsensusRunStats stats;
  nucon::PayloadCounters payload;
};

/// exp::run_point rebuilt from the library's public pieces — exactly what
/// its PointSetup does for a generated-FD point — with the factory's
/// automata and the oracle stack's top wrapped in the timing decorators.
TracedRun traced_run_point(const exp::SweepPoint& pt) {
  ScopedSpan point("exp.point");
  std::optional<nucon::FailurePattern> fp;
  std::unique_ptr<exp::AlgoOracles> oracles;
  nucon::ConsensusFactory make;
  std::vector<nucon::Value> proposals;
  nucon::SchedulerOptions so;
  {
    ScopedSpan setup("exp.setup");
    fp.emplace(exp::failure_pattern_of(pt));
    oracles = std::make_unique<exp::AlgoOracles>(
        pt.algo, *fp, pt.stabilize, pt.faulty_mode, pt.seed, nullptr, pt.hold);
    make = timed_factory(exp::consensus_factory_of(pt.algo, pt.n, pt.seed),
                         /*report_end=*/true);
    proposals = exp::proposals_of(pt);
    so.seed = pt.seed;
    so.max_steps = pt.max_steps;
    so.record_run = false;
  }
  TimedOracle oracle(oracles->top());
  TracedRun out;
  const nucon::PayloadCounters before = nucon::SharedBytes::counters();
  {
    ScopedSpan run("sim.run_consensus");
    out.stats = nucon::run_consensus(*fp, oracle, make, proposals, so);
  }
  out.payload = nucon::SharedBytes::counters() - before;
  return out;
}

/// Layer metrics shared by the two workloads that run consensus instances:
/// exp spans, sim self time, fd and core folds, util payload counters.
void consensus_layers(Result& r, const Recorded& rec, double traced_wall,
                      unsigned threads, const nucon::PayloadCounters& pay,
                      const nucon::trace::MetricsRegistry& m) {
  const std::vector<double> setup = rec.durations("exp.setup");
  const std::vector<double> points = rec.durations("exp.point");
  layer(r, "exp.setup_us_p50", median(setup) * 1e6);
  layer(r, "exp.run_ms_p50", median(points) * 1e3);
  layer(r, "exp.run_ms_p99", quantile(points, 0.99) * 1e3);
  layer(r, "exp.worker_busy_ratio",
        ratio(sum(points), threads * traced_wall));

  const double steps = static_cast<double>(m.counter_value("scheduler.steps"));
  const double run_s = sum(rec.durations("sim.run_consensus"));
  const double core_s = rec.fold_seconds(Fold::kStep);
  const double fd_s = rec.fold_seconds(Fold::kFdValue);
  layer(r, "sim.steps", steps);
  layer(r, "sim.self_ns_per_step", ratio((run_s - core_s - fd_s) * 1e9, steps));
  for (const char* c : {"delivers", "lambda_steps", "forced_deliveries",
                        "shuffled_deliveries", "undelivered_at_end"}) {
    layer(r, std::string("sim.") + c,
          static_cast<double>(m.counter_value(std::string("scheduler.") + c)));
  }
  const auto scan = m.histograms().find("scheduler.pending_scan_length");
  layer(r, "sim.pending_scan_len_mean",
        scan == m.histograms().end() ? 0.0 : scan->second.mean());

  const double queries = static_cast<double>(rec.fold_count(Fold::kFdValue));
  layer(r, "fd.queries", queries);
  layer(r, "fd.ns_per_query", ratio(fd_s * 1e9, queries));

  const double core_steps = static_cast<double>(rec.fold_count(Fold::kStep));
  layer(r, "core.steps", core_steps);
  layer(r, "core.ns_per_step", ratio(core_s * 1e9, core_steps));
  const EndOfRun& e = rec.end_of_run;
  layer(r, "core.history_quorums_mean",
        ratio(static_cast<double>(e.history_quorums),
              static_cast<double>(e.automata)));
  layer(r, "core.distrust_calls", static_cast<double>(e.distrust_calls));
  layer(r, "core.distrust_hit_ratio",
        ratio(static_cast<double>(e.distrust_hits),
              static_cast<double>(e.distrust_calls)));

  layer(r, "util.broadcasts", static_cast<double>(pay.broadcasts));
  layer(r, "util.copied_bytes_per_bcast",
        ratio(static_cast<double>(pay.copied_bytes),
              static_cast<double>(pay.broadcasts)));
  layer(r, "util.shared_ratio",
        ratio(static_cast<double>(pay.shared_bytes),
              static_cast<double>(pay.shared_bytes + pay.copied_bytes)));
}

/// Per-decide costs and the decide round, from untraced runs (the
/// decorator hides the concrete automaton from the harness's round
/// counters, so rounds are only read here).
void decide_layers(Result& r, const std::vector<const ConsensusRunStats*>& runs) {
  double msgs = 0, bytes = 0, decided = 0, rounds = 0, with_round = 0;
  for (const ConsensusRunStats* s : runs) {
    msgs += static_cast<double>(s->messages_sent);
    bytes += static_cast<double>(s->bytes_sent);
    if (s->all_correct_decided) decided += 1;
    if (s->decide_round > 0) {
      rounds += s->decide_round;
      with_round += 1;
    }
  }
  layer(r, "core.msgs_per_decide", ratio(msgs, decided));
  layer(r, "core.kb_per_decide", ratio(bytes / 1024.0, decided));
  layer(r, "core.decide_round", ratio(rounds, with_round));
}

void write_span_file(const Options& o, const Recorded& rec) {
  if (o.out_dir.empty()) return;
  write_spans(rec, o.out_dir + "/spans-" + o.workload + ".jsonl");
}

// ---- paper-sweep -------------------------------------------------------------

/// Three grids in one point vector: A_nuc (E5d), MR with Sigma quorums
/// (E9's uniform baseline) and the naive Sigma^nu substitution (E6), each
/// n x faults with adversarial-disjoint faulty quorum modules, hold 8.
/// Seed block b runs consensus seeds [1 + bc, (b+1)c] of each grid (c = its
/// seed count).
std::vector<exp::SweepPoint> paper_points(const Options& o) {
  const std::uint64_t block = seed_block(o);
  std::vector<exp::SweepPoint> points;
  const std::array<std::pair<exp::Algo, int>, 3> parts = {{
      {exp::Algo::kAnuc, o.tiny ? 2 : 100},
      {exp::Algo::kMrSigma, o.tiny ? 20 : 2000},
      {exp::Algo::kNaive, o.tiny ? 20 : 2000},
  }};
  for (const auto& [algo, seeds] : parts) {
    exp::SweepGrid g;
    g.algos = {algo};
    g.ns = o.tiny ? std::vector<Pid>{3, 5} : std::vector<Pid>{3, 5, 7, 9};
    g.fault_counts = o.tiny ? std::vector<Pid>{0, 1} : std::vector<Pid>{0, 1, 2};
    g.seed_begin = 1 + block * static_cast<std::uint64_t>(seeds);
    g.seed_count = seeds;
    const std::vector<exp::SweepPoint> part = g.expand();
    points.insert(points.end(), part.begin(), part.end());
  }
  return points;
}

Fingerprint sweep_fingerprint(const exp::SweepResult& res) {
  Fingerprint f;
  const exp::SweepAggregate& a = res.aggregate;
  f["runs"] = a.runs;
  f["undecided"] = a.undecided;
  f["termination_failures"] = a.termination_failures;
  f["uniform_violations"] = a.uniform_violations;
  f["nonuniform_violations"] = a.nonuniform_violations;
  f["expectation_failures"] = a.expectation_failures;
  for (const exp::JobOutcome& j : res.jobs) {
    const std::string p = exp::algo_name(j.point.algo);
    f[p + ".runs"] += 1;
    f[p + ".steps"] += static_cast<std::int64_t>(j.stats.steps);
    f[p + ".messages"] += static_cast<std::int64_t>(j.stats.messages_sent);
    f[p + ".bytes"] += static_cast<std::int64_t>(j.stats.bytes_sent);
    f[p + ".nonuniform_violations"] += !j.stats.verdict.nonuniform_agreement;
    f[p + ".uniform_violations"] += !j.stats.verdict.uniform_agreement;
    f[p + ".decide_round_sum"] += j.stats.decide_round;
  }
  for (const auto& [k, v] : a.metrics.counters()) f["m." + k] = v;
  for (const auto& [k, h] : a.metrics.histograms()) {
    f["h." + k + ".count"] = h.count();
    f["h." + k + ".sum"] = h.sum();
  }
  return f;
}

/// Counts the instances that missed their algorithm's expectation.
void check_sweep(Result& r, const exp::SweepResult& res) {
  r.attempted += static_cast<std::int64_t>(res.jobs.size());
  for (const exp::JobOutcome& j : res.jobs) {
    if (!j.ok) r.fail("missed expectation: " + exp::ReplayArtifact{j.point}.to_string());
  }
}

void paper_sweep(const Options& o, Result& r) {
  const std::vector<exp::SweepPoint> points = paper_points(o);
  {
    std::vector<exp::SweepPoint> warm;
    for (std::size_t i = 0; i < points.size(); i += 20) warm.push_back(points[i]);
    (void)exp::SweepRunner(o.threads).run(warm);
  }
  end_setup(o, r);
  if (o.setup_only) return;
  r.item_unit = "runs";

  const exp::SweepRunner runner(o.threads);
  const std::string prefix = "b" + std::to_string(seed_block(o)) + ".";
  if (!o.trace) {
    Fingerprint first;
    time_box(o, 3, 1, [&](int) {
      const std::int64_t t0 = now_ns();
      const exp::SweepResult res = runner.run(points);
      r.op_seconds.push_back(seconds_since(t0));
      r.op_items.push_back(static_cast<double>(res.jobs.size()));
      check_sweep(r, res);
      const Fingerprint f = sweep_fingerprint(res);
      if (first.empty()) {
        first = f;
      } else {
        expect_same(r, first, f, "sweep repetition changed its exact counts");
      }
    });
    merge_prefixed(r.fingerprint, prefix, first);
    r.headline["runs_per_s"] = {median_rate(r), "runs/s"};
    return;
  }

  // Traced: untraced reference, traced rebuild, profiled pass.
  const std::int64_t t0 = now_ns();
  const exp::SweepResult ref = runner.run(points);
  const double ref_wall = seconds_since(t0);
  check_sweep(r, ref);
  merge_prefixed(r.fingerprint, prefix, sweep_fingerprint(ref));

  reset();
  double traced_wall = 0.0;
  nucon::PayloadCounters pay;
  {
    std::vector<TracedRun> traced(points.size());
    const std::int64_t t1 = now_ns();
    {
      exp::ThreadPool pool(o.threads);
      std::vector<std::future<void>> done;
      done.reserve(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        done.push_back(pool.submit(
            [&traced, &points, i] { traced[i] = traced_run_point(points[i]); }));
      }
      for (std::future<void>& f : done) f.get();
    }
    traced_wall = seconds_since(t1);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (run_fingerprint(traced[i].stats) != run_fingerprint(ref.jobs[i].stats)) {
        r.fail("traced run differs: " + exp::ReplayArtifact{points[i]}.to_string());
      }
      pay.broadcasts += traced[i].payload.broadcasts;
      pay.copied_bytes += traced[i].payload.copied_bytes;
      pay.shared_bytes += traced[i].payload.shared_bytes;
    }
  }  // frees the traced runs before the profiled pass allocates its own
  const Recorded rec = collect();

  std::vector<const ConsensusRunStats*> runs;
  for (const exp::JobOutcome& j : ref.jobs) runs.push_back(&j.stats);

  double prof_step_ns = 0.0;
  {
    exp::SweepRunner profiled(o.threads);
    profiled.set_profiling(true);
    prof_step_ns = profiled.run(points).profile.ns_per_call(
        nucon::prof::Phase::kAutomatonStep);
  }

  layer(r, "exp.runs", static_cast<double>(ref.aggregate.runs));
  layer(r, "exp.execute_s", ref.wall_seconds);
  layer(r, "exp.fold_s", ref.fold_seconds);
  consensus_layers(r, rec, traced_wall, o.threads, pay, ref.aggregate.metrics);
  decide_layers(r, runs);
  layer(r, "trace.overhead_ratio", ratio(traced_wall, ref_wall));
  layer(r, "prof.automaton_step_ns", prof_step_ns);
  write_span_file(o, rec);
}

// ---- anuc-wide -----------------------------------------------------------------

/// A_nuc at n=128 with one crash, post-GST: the quorum redraw interval and
/// the step budget are both 40n^2 (bench_hotpath H4's regime). Instance k
/// of seed block b runs consensus seed 1000b + k + 1.
exp::SweepPoint wide_point(const Options& o, int k) {
  exp::SweepPoint pt;
  pt.algo = exp::Algo::kAnuc;
  pt.n = o.tiny ? 24 : 128;
  pt.faults = 1;
  pt.max_steps = std::max<std::int64_t>(50'000, 40LL * pt.n * pt.n);
  pt.hold = pt.max_steps;
  pt.seed = seed_block(o) * 1000 + static_cast<std::uint64_t>(k) + 1;
  return pt;
}

void wide_fingerprint(Fingerprint& f, const exp::SweepPoint& pt,
                      const ConsensusRunStats& s) {
  const std::string p = "s" + std::to_string(pt.seed) + ".";
  f[p + "steps"] = static_cast<std::int64_t>(s.steps);
  f[p + "messages"] = static_cast<std::int64_t>(s.messages_sent);
  f[p + "bytes"] = static_cast<std::int64_t>(s.bytes_sent);
  f[p + "decide_round"] = s.decide_round;
  f[p + "nonuniform_ok"] = s.verdict.solves_nonuniform();
}

void anuc_wide(const Options& o, Result& r) {
  {
    // The same warm-up for every seed (consensus seed 0, which no operation
    // runs), so set-up time does not depend on the inputs.
    exp::SweepPoint warm = wide_point(o, 0);
    warm.seed = 0;
    warm.n = o.tiny ? 12 : 72;
    warm.max_steps = warm.hold = std::max<std::int64_t>(50'000, 40LL * warm.n * warm.n);
    (void)exp::run_point(warm);
  }
  end_setup(o, r);
  if (o.setup_only) return;
  r.item_unit = "steps";

  auto check = [&](const exp::SweepPoint& pt, const ConsensusRunStats& s) {
    ++r.attempted;
    if (!meets_expectation(pt.algo, s)) {
      r.fail("missed expectation: " + exp::ReplayArtifact{pt}.to_string());
    }
  };

  if (!o.trace) {
    time_box(o, 3, 1, [&](int k) {
      const exp::SweepPoint pt = wide_point(o, k);
      const std::int64_t t0 = now_ns();
      const ConsensusRunStats s = exp::run_point(pt);
      r.op_seconds.push_back(seconds_since(t0));
      r.op_items.push_back(static_cast<double>(s.steps));
      check(pt, s);
      wide_fingerprint(r.fingerprint, pt, s);
    });
    r.headline["decide_s_p50"] = {median(r.op_seconds), "s"};
    r.headline["decide_samples"] = {static_cast<double>(r.op_seconds.size()),
                                    "count"};
    return;
  }

  // Traced: per instance, an untraced run_point, the traced rebuild and a
  // profiled run_point, until the time box closes.
  reset();
  std::vector<ConsensusRunStats> refs;
  nucon::trace::MetricsRegistry metrics;
  nucon::PayloadCounters pay;
  nucon::prof::ProfileCollector profile;
  double ref_wall = 0.0;
  double traced_wall = 0.0;
  time_box(o, 1, 1, [&](int k) {
    const exp::SweepPoint pt = wide_point(o, k);
    std::int64_t t0 = now_ns();
    refs.push_back(exp::run_point(pt));
    ref_wall += seconds_since(t0);
    const ConsensusRunStats& ref = refs.back();
    check(pt, ref);
    wide_fingerprint(r.fingerprint, pt, ref);
    metrics.merge(ref.metrics);

    t0 = now_ns();
    const TracedRun t = traced_run_point(pt);
    traced_wall += seconds_since(t0);
    if (run_fingerprint(t.stats) != run_fingerprint(ref)) {
      r.fail("traced run differs: " + exp::ReplayArtifact{pt}.to_string());
    }
    pay.broadcasts += t.payload.broadcasts;
    pay.copied_bytes += t.payload.copied_bytes;
    pay.shared_bytes += t.payload.shared_bytes;

    (void)exp::run_point(pt, &profile);
  });
  const Recorded rec = collect();

  std::vector<const ConsensusRunStats*> runs;
  for (const ConsensusRunStats& s : refs) runs.push_back(&s);
  layer(r, "exp.runs", static_cast<double>(refs.size()));
  layer(r, "exp.execute_s", ref_wall);
  consensus_layers(r, rec, traced_wall, 1, pay, metrics);
  decide_layers(r, runs);
  layer(r, "trace.overhead_ratio", ratio(traced_wall, ref_wall));
  layer(r, "prof.automaton_step_ns",
        profile.ns_per_call(nucon::prof::Phase::kAutomatonStep));
  write_span_file(o, rec);
}

// ---- mc-exhaust ----------------------------------------------------------------

/// E17's split-quorum history at n=3 under A_nuc: processes a and b share
/// quorum {a,b} under leader a, c sits behind {c} as its own leader;
/// proposals 0,0,1. `relabel` (0..5) renames the processes by a
/// permutation of {0,1,2}: each relabelling is an isomorphic copy of one
/// state space, so all six have the same unique-state count, while the
/// engine's canonical (sender, seq) order — and with it its dedup and POR
/// work — differs between them.
nucon::McOptions mc_options(int relabel, int depth, unsigned threads = 1) {
  static constexpr std::array<std::array<Pid, 3>, 6> kPerms = {{
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  const std::array<Pid, 3> perm = kPerms[static_cast<std::size_t>(relabel % 6)];
  nucon::McOptions m;
  m.n = 3;
  m.make = nucon::make_anuc(3);
  m.proposals.assign(3, 0);
  m.proposals[static_cast<std::size_t>(perm[2])] = 1;
  m.fd = [perm](Pid q, int /*own_step*/) {
    const bool paired = q != perm[2];
    nucon::FdValue v = nucon::FdValue::of_quorum(
        paired ? nucon::ProcessSet{perm[0], perm[1]}
               : nucon::ProcessSet::single(perm[2]));
    v.set_leader(paired ? perm[0] : perm[2]);
    return v;
  };
  m.max_depth = depth;
  m.max_states = 100'000'000;  // exhaustion, not budget, ends the check
  m.threads = threads;
  return m;
}

int mc_depth(const Options& o) { return o.tiny ? 6 : 10; }

Fingerprint mc_fingerprint(const nucon::McResult& m) {
  Fingerprint f;
  f["states"] = static_cast<std::int64_t>(m.states_explored);
  f["deduped"] = static_cast<std::int64_t>(m.states_deduped);
  f["reexpanded"] = static_cast<std::int64_t>(m.states_reexpanded);
  f["por_skipped"] = static_cast<std::int64_t>(m.por_skipped);
  f["hash_collisions"] = static_cast<std::int64_t>(m.hash_collisions);
  f["peak_depth"] = m.peak_depth;
  f["exhausted"] = m.exhausted;
  f["violation"] = m.violation_found;
  return f;
}

void check_mc(Result& r, const nucon::McResult& m) {
  ++r.attempted;
  if (m.violation_found) r.fail("model check found a violation: " + m.violation);
  if (!m.exhausted) r.fail("model check did not exhaust its space");
}

/// Seed s starts the cycle of relabellings at s mod 6; a run checks at least
/// two whole cycles, so every run times the same six checks. One thread, as
/// for the fuzzer: the parallel engine syncs its workers at every BFS layer
/// and spread twice as much run to run; the traced pass still measures its
/// speedup on the box's threads.
void mc_exhaust(const Options& o, Result& r) {
  const int first = static_cast<int>(o.seed % 6);
  (void)nucon::model_check_consensus(mc_options(0, mc_depth(o) - 2));
  end_setup(o, r);
  if (o.setup_only) return;
  r.item_unit = "states";

  if (!o.trace) {
    std::map<int, Fingerprint> seen;
    time_box(o, 12, 6, [&](int k) {
      const int relabel = (first + k) % 6;
      const nucon::McOptions opts = mc_options(relabel, mc_depth(o));
      const std::int64_t t0 = now_ns();
      const nucon::McResult m = nucon::model_check_consensus(opts);
      r.op_seconds.push_back(seconds_since(t0));
      r.op_items.push_back(static_cast<double>(m.states_explored));
      check_mc(r, m);
      if (r.op_items.back() != r.op_items.front()) {
        r.fail("relabelling " + std::to_string(relabel) +
               " changed the unique-state count");
      }
      const Fingerprint f = mc_fingerprint(m);
      const auto [it, fresh] = seen.try_emplace(relabel, f);
      if (!fresh) {
        expect_same(r, it->second, f, "model check repetition changed its exact counts");
      }
    });
    for (const auto& [relabel, f] : seen) {
      merge_prefixed(r.fingerprint, "p" + std::to_string(relabel) + ".", f);
    }
    r.headline["states_per_s"] = {median_rate(r), "states/s"};
    return;
  }
  const nucon::McOptions opts = mc_options(first, mc_depth(o));

  // Traced: the untraced check, the same check on the box's threads (for the
  // engine's parallel speedup), then the decorated check (the engine's self
  // time is its wall minus the automaton and fd spans).
  std::int64_t t0 = now_ns();
  const nucon::McResult ref = nucon::model_check_consensus(opts);
  const double wall_1 = seconds_since(t0);
  check_mc(r, ref);
  merge_prefixed(r.fingerprint, "p" + std::to_string(first) + ".", mc_fingerprint(ref));

  t0 = now_ns();
  const nucon::McResult parallel =
      nucon::model_check_consensus(mc_options(first, mc_depth(o), o.threads));
  const double wall_n = seconds_since(t0);
  if (!(parallel == ref)) r.fail("threaded model check differs from the serial one");

  nucon::McOptions traced = opts;
  traced.make = timed_factory(opts.make, /*report_end=*/false);
  traced.fd = [fd = opts.fd](Pid p, int k) {
    const std::int64_t s = now_ns();
    nucon::FdValue v = fd(p, k);
    fold(Fold::kFdValue, now_ns() - s);
    return v;
  };
  reset();
  nucon::McResult tr;
  double traced_wall = 0.0;
  {
    ScopedSpan span("check.model_check");
    tr = nucon::model_check_consensus(traced);
    traced_wall = span.elapsed();
  }
  const Recorded rec = collect();
  if (!(tr == ref)) r.fail("traced model check differs from the untraced one");

  const double states = static_cast<double>(ref.states_explored);
  const double arrivals = states + static_cast<double>(ref.states_deduped);
  layer(r, "check.states", states);
  layer(r, "check.dedup_ratio", ratio(static_cast<double>(ref.states_deduped), arrivals));
  layer(r, "check.por_prune_ratio",
        ratio(static_cast<double>(ref.por_skipped),
              arrivals + static_cast<double>(ref.por_skipped)));
  layer(r, "check.reexpanded", static_cast<double>(ref.states_reexpanded));
  layer(r, "check.hash_collisions", static_cast<double>(ref.hash_collisions));
  layer(r, "check.peak_depth", ref.peak_depth);
  double automaton_s = 0.0;
  for (Fold f : {Fold::kStep, Fold::kSaveState, Fold::kRestore, Fold::kClone,
                 Fold::kFdValue}) {
    automaton_s += rec.fold_seconds(f);
  }
  layer(r, "check.engine_self_s", traced_wall - automaton_s);
  layer(r, "check.bytes_per_state", ratio(peak_rss_bytes(), states));
  layer(r, "check.thread_speedup", ratio(wall_1, wall_n));

  auto mean_ns = [&](Fold f) {
    return ratio(rec.fold_seconds(f) * 1e9, static_cast<double>(rec.fold_count(f)));
  };
  layer(r, "core.steps", static_cast<double>(rec.fold_count(Fold::kStep)));
  layer(r, "core.ns_per_step", mean_ns(Fold::kStep));
  layer(r, "core.save_state_ns", mean_ns(Fold::kSaveState));
  layer(r, "core.restore_ns", mean_ns(Fold::kRestore));
  layer(r, "core.clone_ns", mean_ns(Fold::kClone));
  layer(r, "fd.queries", static_cast<double>(rec.fold_count(Fold::kFdValue)));
  layer(r, "fd.ns_per_query", mean_ns(Fold::kFdValue));
  layer(r, "trace.overhead_ratio", ratio(traced_wall, wall_1));
  write_span_file(o, rec);
}

// ---- fuzz-hunt -----------------------------------------------------------------

/// One campaign against the naive substitution at n=4: a fixed execution
/// budget, max_finds above any campaign's find count, minimization on.
/// Campaign k of seed block b runs master seed 1000b + k + 1. One thread:
/// the engine syncs its workers at every 32-genome batch, and with 4 threads
/// a single slowed core stalled each batch, which tripled the run-to-run
/// spread; the campaign's results are the same at any thread count.
nucon::fuzz::EngineOptions fuzz_options(const Options& o, int k,
                                        std::size_t execs) {
  nucon::fuzz::EngineOptions e;
  e.target.algo = exp::Algo::kNaive;
  e.target.n = 4;
  e.master_seed = seed_block(o) * 1000 + static_cast<std::uint64_t>(k) + 1;
  e.max_execs = execs;
  e.max_finds = 1'000'000;
  e.minimize = true;
  e.threads = 1;
  return e;
}

std::size_t fuzz_execs(const Options& o) { return o.tiny ? 512 : 16384; }

Fingerprint fuzz_fingerprint(const nucon::fuzz::FuzzResult& f) {
  Fingerprint fp;
  const nucon::fuzz::FuzzStats& s = f.stats;
  fp["execs"] = static_cast<std::int64_t>(s.execs);
  fp["corpus"] = static_cast<std::int64_t>(s.corpus_size);
  fp["unique_states"] = static_cast<std::int64_t>(s.unique_states);
  fp["divergence_shapes"] = static_cast<std::int64_t>(s.divergence_shapes);
  fp["finds"] = static_cast<std::int64_t>(s.finds);
  fp["minimize_probes"] = static_cast<std::int64_t>(s.minimize_probes);
  std::uint64_t corpus = kFnvBasis;
  for (const nucon::fuzz::Genome& g : f.corpus) corpus = fnv1a(corpus, g.to_string());
  fp["corpus_hash"] = hash53(corpus);
  std::uint64_t finds = kFnvBasis;
  for (const nucon::fuzz::Find& x : f.finds) {
    finds = fnv1a(finds, x.minimized.to_string());
    finds = fnv1a(finds, x.violation);
  }
  fp["finds_hash"] = hash53(finds);
  return fp;
}

/// A campaign fails unless every minimized find re-executes to its
/// violation.
void check_fuzz(Result& r, const nucon::fuzz::FuzzResult& f) {
  ++r.attempted;
  nucon::fuzz::ExecOptions eo;
  eo.collect_coverage = false;
  for (std::size_t k = 0; k < f.finds.size(); ++k) {
    const nucon::fuzz::Find& x = f.finds[k];
    const std::string got = nucon::fuzz::execute_genome(x.minimized, eo).violation;
    if (got != x.violation) {
      r.fail("minimized find " + std::to_string(k) + " re-executes to '" + got +
             "', not '" + x.violation + "'");
    }
  }
}

void fuzz_hunt(const Options& o, Result& r) {
  {
    // Master seed 0, which no operation runs: the same warm-up for every seed.
    nucon::fuzz::EngineOptions warm = fuzz_options(o, 0, o.tiny ? 64 : 3072);
    warm.master_seed = 0;
    warm.minimize = false;
    (void)nucon::fuzz::run_fuzz(warm);
  }
  end_setup(o, r);
  if (o.setup_only) return;
  r.item_unit = "execs";
  auto prefix = [](const nucon::fuzz::EngineOptions& e) {
    return "m" + std::to_string(e.master_seed) + ".";
  };

  if (!o.trace) {
    time_box(o, 3, 1, [&](int k) {
      const nucon::fuzz::EngineOptions opts = fuzz_options(o, k, fuzz_execs(o));
      const std::int64_t t0 = now_ns();
      const nucon::fuzz::FuzzResult f = nucon::fuzz::run_fuzz(opts);
      r.op_seconds.push_back(seconds_since(t0));
      r.op_items.push_back(static_cast<double>(f.stats.execs));
      check_fuzz(r, f);
      merge_prefixed(r.fingerprint, prefix(opts), fuzz_fingerprint(f));
    });
    r.headline["execs_per_s"] = {median_rate(r), "execs/s"};
    return;
  }
  const nucon::fuzz::EngineOptions opts = fuzz_options(o, 0, fuzz_execs(o));

  // Traced: the untraced campaign, then the same campaign with minimization
  // off, each find minimized on its own, and the corpus replayed with
  // coverage on and off.
  std::int64_t t0 = now_ns();
  const nucon::fuzz::FuzzResult ref = nucon::fuzz::run_fuzz(opts);
  const double ref_wall = seconds_since(t0);
  check_fuzz(r, ref);
  const Fingerprint want = fuzz_fingerprint(ref);
  merge_prefixed(r.fingerprint, prefix(opts), want);

  reset();
  nucon::fuzz::EngineOptions bare = opts;
  bare.minimize = false;
  nucon::fuzz::FuzzResult campaign;
  double campaign_s = 0.0;
  {
    ScopedSpan span("fuzz.campaign");
    campaign = nucon::fuzz::run_fuzz(bare);
    campaign_s = span.elapsed();
  }
  nucon::fuzz::MinimizeStats ms;
  double minimize_s = 0.0;
  for (nucon::fuzz::Find& x : campaign.finds) {
    ScopedSpan span("fuzz.minimize");
    x.minimized = nucon::fuzz::minimize_violation(x.genome, x.violation, &ms);
    minimize_s += span.elapsed();
  }
  campaign.stats.minimize_probes = ms.probes;
  // The fingerprint hashes the corpus and the minimized finds, so equality
  // covers the whole campaign.
  expect_same(r, want, fuzz_fingerprint(campaign),
              "campaign without minimization plus separate ddmin differs");

  nucon::fuzz::ExecOptions cov_on;
  nucon::fuzz::ExecOptions cov_off;
  cov_off.collect_coverage = false;
  for (const nucon::fuzz::Genome& g : campaign.corpus) {
    {
      ScopedSpan span("fuzz.exec");
      (void)nucon::fuzz::execute_genome(g, cov_on);
    }
    ScopedSpan span("fuzz.exec_nocov");
    (void)nucon::fuzz::execute_genome(g, cov_off);
  }
  const Recorded rec = collect();

  const nucon::fuzz::FuzzStats& s = ref.stats;
  layer(r, "fuzz.execs", static_cast<double>(s.execs));
  layer(r, "fuzz.corpus", static_cast<double>(s.corpus_size));
  layer(r, "fuzz.unique_states", static_cast<double>(s.unique_states));
  layer(r, "fuzz.divergence_shapes", static_cast<double>(s.divergence_shapes));
  layer(r, "fuzz.finds", static_cast<double>(s.finds));
  layer(r, "fuzz.minimize_probes", static_cast<double>(s.minimize_probes));
  layer(r, "fuzz.admit_ratio",
        ratio(static_cast<double>(s.corpus_size), static_cast<double>(s.execs)));
  layer(r, "fuzz.campaign_s", campaign_s);
  layer(r, "fuzz.minimize_s", minimize_s);
  const std::vector<double> on = rec.durations("fuzz.exec");
  layer(r, "fuzz.exec_us_p50", median(on) * 1e6);
  layer(r, "fuzz.exec_us_p99", quantile(on, 0.99) * 1e6);
  layer(r, "fuzz.coverage_share",
        on.empty() ? 0.0 : 1.0 - ratio(sum(rec.durations("fuzz.exec_nocov")), sum(on)));
  layer(r, "trace.overhead_ratio", ratio(campaign_s + minimize_s, ref_wall));
  write_span_file(o, rec);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> k = {"paper-sweep", "anuc-wide",
                                             "mc-exhaust", "fuzz-hunt"};
  return k;
}

Result run_workload(const Options& o) {
  Result r;
  if (o.trace) init_layers(r);
  if (o.workload == "paper-sweep") {
    paper_sweep(o, r);
  } else if (o.workload == "anuc-wide") {
    anuc_wide(o, r);
  } else if (o.workload == "mc-exhaust") {
    mc_exhaust(o, r);
  } else if (o.workload == "fuzz-hunt") {
    fuzz_hunt(o, r);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  return r;
}

}  // namespace perfbench
