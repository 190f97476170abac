#include "obs/report.hpp"

#include <cstdio>
#include <initializer_list>
#include <sstream>

#include "util/minijson.hpp"

namespace nucon::obs {
namespace {

using util::json_escape;
using util::json_number;
using util::JsonValue;

/// A JSON array of strings.
std::string strings_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

std::string metrics_json(const trace::MetricsRegistry& metrics) {
  std::ostringstream os;
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : metrics.counters()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : metrics.histograms()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h.count()
       << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max() << ",\"p50\":" << h.quantile(0.5)
       << ",\"p90\":" << h.quantile(0.9) << ",\"p99\":" << h.quantile(0.99)
       << "}";
  }
  os << "}";
  return os.str();
}

std::string profile_section_json(const ProfileSection& p) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(p.name) << "\",\"steps\":" << p.steps
     << ",\"step_seconds\":" << json_number(p.step_seconds)
     << ",\"ns_per_step\":" << json_number(p.ns_per_step)
     << ",\"covered_fraction\":" << json_number(p.covered_fraction)
     << ",\"phases\":[";
  for (std::size_t i = 0; i < p.phases.size(); ++i) {
    const ProfilePhaseRow& row = p.phases[i];
    if (i > 0) os << ",";
    os << "{\"phase\":\"" << json_escape(row.phase)
       << "\",\"calls\":" << row.calls
       << ",\"seconds\":" << json_number(row.seconds)
       << ",\"ns_per_call\":" << json_number(row.ns_per_call)
       << ",\"share\":" << json_number(row.share) << "}";
  }
  os << "]}";
  return os.str();
}

std::string sweep_section_json(const SweepSection& s, bool include_timings) {
  std::ostringstream os;
  os << "{\"name\":\"" << json_escape(s.name) << "\",\"spec\":\""
     << json_escape(s.spec) << "\",\"runs\":" << s.runs
     << ",\"undecided\":" << s.undecided
     << ",\"termination_failures\":" << s.termination_failures
     << ",\"uniform_violations\":" << s.uniform_violations
     << ",\"nonuniform_violations\":" << s.nonuniform_violations
     << ",\"expectation_failures\":" << s.expectation_failures
     << ",\"mean_decide_round\":" << json_number(s.mean_decide_round)
     << ",\"mean_steps\":" << json_number(s.mean_steps)
     << ",\"mean_messages\":" << json_number(s.mean_messages)
     << ",\"mean_kbytes\":" << json_number(s.mean_kbytes) << ","
     << metrics_json(s.metrics) << ",\"failures\":[";
  for (std::size_t i = 0; i < s.failure_artifacts.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"artifact\":\"" << json_escape(s.failure_artifacts[i]) << "\"";
    if (i < s.failure_trace_paths.size() && !s.failure_trace_paths[i].empty()) {
      os << ",\"trace\":\"" << json_escape(s.failure_trace_paths[i]) << "\"";
    }
    os << "}";
  }
  os << "]";
  if (include_timings) {
    os << ",\"wall_seconds\":" << json_number(s.wall_seconds)
       << ",\"steps_per_second\":" << json_number(s.steps_per_second);
  }
  os << "}";
  return os.str();
}

}  // namespace

SweepSection section_of(std::string name, std::string spec,
                        const exp::SweepResult& result) {
  SweepSection s;
  s.name = std::move(name);
  s.spec = std::move(spec);
  const exp::SweepAggregate& agg = result.aggregate;
  s.runs = agg.runs;
  s.undecided = agg.undecided;
  s.termination_failures = agg.termination_failures;
  s.uniform_violations = agg.uniform_violations;
  s.nonuniform_violations = agg.nonuniform_violations;
  s.expectation_failures = agg.expectation_failures;
  s.mean_decide_round = agg.decide_rounds.mean();
  s.mean_steps = agg.steps.mean();
  s.mean_messages = agg.messages.mean();
  s.mean_kbytes = agg.kbytes.mean();
  s.metrics = agg.metrics;
  for (const exp::ReplayArtifact& a : agg.failures) {
    s.failure_artifacts.push_back(a.to_string());
  }
  s.failure_trace_paths = agg.failure_trace_paths;
  s.failure_trace_paths.resize(s.failure_artifacts.size());
  s.wall_seconds = result.wall_seconds;
  s.steps_per_second = result.steps_per_second;
  return s;
}

SweepSection section_of_jobs(std::string name, std::string spec,
                             const std::vector<exp::JobOutcome>& jobs,
                             const std::vector<std::size_t>& indices) {
  exp::SweepResult folded;
  for (const std::size_t i : indices) folded.aggregate.add(jobs[i]);
  return section_of(std::move(name), std::move(spec), folded);
}

ProfileSection profile_section_of(std::string name,
                                  const prof::ProfileCollector& collector) {
  ProfileSection p;
  p.name = std::move(name);
  const prof::PhaseStats& envelope =
      collector.phase(prof::Phase::kStep);
  p.steps = envelope.calls;
  p.step_seconds = collector.seconds(prof::Phase::kStep);
  p.ns_per_step = collector.ns_per_call(prof::Phase::kStep);
  p.covered_fraction = collector.covered_fraction();
  for (int i = 0; i < prof::kPhaseCount; ++i) {
    const auto ph = static_cast<prof::Phase>(i);
    if (ph == prof::Phase::kStep) continue;
    const prof::PhaseStats& s = collector.phase(ph);
    if (s.calls == 0) continue;
    ProfilePhaseRow row;
    row.phase = prof::phase_name(ph);
    row.calls = s.calls;
    row.seconds = collector.seconds(ph);
    row.ns_per_call = collector.ns_per_call(ph);
    row.share = envelope.ticks > 0
                    ? static_cast<double>(s.ticks) /
                          static_cast<double>(envelope.ticks)
                    : 0.0;
    p.phases.push_back(std::move(row));
  }
  return p;
}

std::string report_json(const BenchReport& report, bool include_timings) {
  std::ostringstream os;
  os << "{\"v\":" << kReportSchemaVersion << ",\"name\":\""
     << json_escape(report.name) << "\",\"tables\":[";
  for (std::size_t i = 0; i < report.tables.size(); ++i) {
    const TableSection& t = report.tables[i];
    if (i > 0) os << ",";
    os << "{\"title\":\"" << json_escape(t.title)
       << "\",\"headers\":" << strings_json(t.headers) << ",\"rows\":[";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      if (r > 0) os << ",";
      os << strings_json(t.rows[r]);
    }
    os << "]}";
  }
  os << "],\"sweeps\":[";
  for (std::size_t i = 0; i < report.sweeps.size(); ++i) {
    if (i > 0) os << ",";
    os << sweep_section_json(report.sweeps[i], include_timings);
  }
  os << "]";
  // Profile sections are wall-clock through and through (tick timings),
  // so like wall_seconds they exist only behind include_timings — the
  // timing-free body stays a pure function of the fold.
  if (include_timings && !report.profiles.empty()) {
    os << ",\"profiles\":[";
    for (std::size_t i = 0; i < report.profiles.size(); ++i) {
      if (i > 0) os << ",";
      os << profile_section_json(report.profiles[i]);
    }
    os << "]";
  }
  if (include_timings && !report.timings.empty()) {
    os << ",\"timings\":{";
    bool first = true;
    for (const auto& [phase, seconds] : report.timings) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(phase) << "\":" << json_number(seconds);
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

std::string report_markdown(const BenchReport& report) {
  std::ostringstream os;
  os << "## " << report.name << "\n";
  for (const TableSection& t : report.tables) {
    os << "\n### " << t.title << "\n\n|";
    for (const std::string& h : t.headers) os << " " << h << " |";
    os << "\n|";
    for (std::size_t j = 0; j < t.headers.size(); ++j) os << "---|";
    os << "\n";
    for (const auto& row : t.rows) {
      os << "|";
      for (const std::string& cell : row) os << " " << cell << " |";
      os << "\n";
    }
  }
  char buf[64];
  const auto fmt = [&buf](double v, int prec) {
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return std::string(buf);
  };
  if (!report.profiles.empty()) {
    for (const ProfileSection& p : report.profiles) {
      os << "\n### profile: " << p.name << "\n\n"
         << "steps=" << p.steps << "  ns/step=" << fmt(p.ns_per_step, 1)
         << "  phase coverage=" << fmt(p.covered_fraction * 100.0, 1)
         << "%\n\n"
         << "| phase | calls | total ms | ns/call | share |\n"
         << "|---|---|---|---|---|\n";
      for (const ProfilePhaseRow& row : p.phases) {
        os << "| " << row.phase << " | " << row.calls << " | "
           << fmt(row.seconds * 1e3, 3) << " | " << fmt(row.ns_per_call, 1)
           << " | " << fmt(row.share * 100.0, 1) << "% |\n";
      }
    }
  }
  if (!report.sweeps.empty()) {
    os << "\n### sweeps\n\n"
       << "| sweep | runs | undecided | term_fail | uniform_viol | "
          "nonuniform_viol | expect_fail | mean_round | mean_steps | "
          "mean_msgs |\n"
       << "|---|---|---|---|---|---|---|---|---|---|\n";
    for (const SweepSection& s : report.sweeps) {
      os << "| " << s.name << " | " << s.runs << " | " << s.undecided << " | "
         << s.termination_failures << " | " << s.uniform_violations << " | "
         << s.nonuniform_violations << " | " << s.expectation_failures
         << " | " << fmt(s.mean_decide_round, 1) << " | "
         << fmt(s.mean_steps, 0) << " | " << fmt(s.mean_messages, 0)
         << " |\n";
    }
    for (const SweepSection& s : report.sweeps) {
      for (std::size_t i = 0; i < s.failure_artifacts.size(); ++i) {
        os << "\n- `" << s.name << "` failure: `" << s.failure_artifacts[i]
           << "`";
        if (i < s.failure_trace_paths.size() &&
            !s.failure_trace_paths[i].empty()) {
          os << " (trace: `" << s.failure_trace_paths[i] << "`)";
        }
      }
    }
  }
  os << "\n";
  return os.str();
}

bool write_report_json(const BenchReport& report, const std::string& path) {
  const std::string json = report_json(report, /*include_timings=*/true);
  // Write-to-temp-then-rename: a bench killed mid-write leaves at worst a
  // stale *.tmp, never a truncated BENCH_*.json that validate_report_json
  // (or the trend ledger) would later choke on. rename(2) replaces an
  // existing report atomically on every platform this builds on.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = (written == json.size()) && (std::fflush(f) == 0);
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Validation: parse with util::parse_json, then walk the DOM against the
// schema above.

namespace {

struct RequiredKey {
  const char* name;
  JsonValue::Kind kind;
};

/// The first key of `keys` that `object` lacks or carries with another
/// kind, as a diagnostic naming `what` (nullopt when all are present).
std::optional<std::string> missing_key(const JsonValue& object,
                                       std::initializer_list<RequiredKey> keys,
                                       const std::string& what) {
  if (!object.is_object()) return what + " is not an object";
  for (const RequiredKey& key : keys) {
    const JsonValue* v = object.find(key.name);
    if (v == nullptr || v->kind != key.kind) {
      return what + " missing \"" + key.name + "\"";
    }
  }
  return std::nullopt;
}

/// Checks every section of the array `doc[key]` (absent is fine) for
/// `keys`; sections are named "<what> <index>" in the diagnostic.
std::optional<std::string> bad_section(const JsonValue& doc, const char* key,
                                       const std::string& what,
                                       std::initializer_list<RequiredKey> keys) {
  const JsonValue* sections = doc.find(key);
  if (sections == nullptr) return std::nullopt;
  if (!sections->is_array()) return std::string("non-array \"") + key + "\"";
  for (std::size_t i = 0; i < sections->array.size(); ++i) {
    if (auto problem = missing_key(sections->array[i], keys,
                                   what + " " + std::to_string(i))) {
      return problem;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_report_json(const std::string& json) {
  util::JsonParseError error;
  const auto doc = util::parse_json(json, &error);
  if (!doc) return "not valid JSON: " + error.to_string();

  // Top-level shape: an object with the versioned header. v1 (the
  // pre-profiling schema) stays readable: the bench/history ledger and
  // archived BENCH_*.json documents predate the "profiles" section.
  using Kind = JsonValue::Kind;
  if (auto problem = missing_key(*doc,
                                 {{"v", Kind::kNumber},
                                  {"name", Kind::kString},
                                  {"tables", Kind::kArray},
                                  {"sweeps", Kind::kArray}},
                                 "report")) {
    return problem;
  }
  const JsonValue& v = *doc->find("v");
  if (v.as_int() != kReportSchemaVersion && v.as_int() != 1) {
    return "unsupported report schema version " + v.string;
  }
  // Every sweep section carries the verdict counters and metrics. The v2
  // "profiles" section is optional; its sections carry the phase
  // breakdown.
  if (auto problem = bad_section(*doc, "sweeps", "sweep section",
                                 {{"name", Kind::kString},
                                  {"spec", Kind::kString},
                                  {"runs", Kind::kNumber},
                                  {"undecided", Kind::kNumber},
                                  {"termination_failures", Kind::kNumber},
                                  {"uniform_violations", Kind::kNumber},
                                  {"nonuniform_violations", Kind::kNumber},
                                  {"expectation_failures", Kind::kNumber},
                                  {"counters", Kind::kObject},
                                  {"histograms", Kind::kObject},
                                  {"failures", Kind::kArray}})) {
    return problem;
  }
  return bad_section(*doc, "profiles", "profile section",
                     {{"name", Kind::kString},
                      {"steps", Kind::kNumber},
                      {"step_seconds", Kind::kNumber},
                      {"covered_fraction", Kind::kNumber},
                      {"phases", Kind::kArray}});
}

}  // namespace nucon::obs
