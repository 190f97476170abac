// nucon_bench: benchmark trend tracking and regression detection over the
// BENCH_*.json documents the bench binaries emit (obs/report.hpp schema).
//
//   nucon_bench record --history bench/history [--sha REV] BENCH_*.json
//       validate each report, flatten it to trend metrics (prof/trend.hpp
//       key scheme), stamp machine + git sha + UTC timestamp, and append
//       one JSONL entry per report to <history>/ledger.jsonl.
//   nucon_bench diff A.json B.json [--tolerance 0.25]
//       compare two reports metric by metric; exit 0 when B holds the
//       line, 1 when any directional metric regressed past tolerance or
//       a report fails validation.
//   nucon_bench check --history bench/history [--informational]
//       for every (bench, machine) series in the ledger, diff the last
//       two entries; --informational reports but always exits 0.
//   nucon_bench manifest --out BENCH_manifest.json FILE...
//       validate every report and write a manifest of what a bench run
//       produced; exits nonzero if any report fails validation.
//
// Exit codes: 0 ok, 1 regression/validation failure, 2 usage or I/O error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "prof/trend.hpp"
#include "util/minijson.hpp"

using namespace nucon;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: nucon_bench record --history DIR [--sha REV] [--machine M] "
      "REPORT.json...\n"
      "       nucon_bench diff BEFORE.json AFTER.json [--tolerance T]\n"
      "       nucon_bench check --history DIR [--tolerance T] "
      "[--informational]\n"
      "       nucon_bench manifest --out PATH REPORT.json...\n");
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Loads + validates + flattens one BENCH report, or explains why not;
/// `exit_code`, when given, receives 2 for an unreadable file and 1 for an
/// invalid report.
std::optional<prof::TrendEntry> load_report(const std::string& path,
                                            int* exit_code = nullptr) {
  const auto text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "nucon_bench: cannot open %s\n", path.c_str());
    if (exit_code != nullptr) *exit_code = 2;
    return std::nullopt;
  }
  if (exit_code != nullptr) *exit_code = 1;
  if (const auto problem = obs::validate_report_json(*text)) {
    std::fprintf(stderr, "nucon_bench: %s: invalid report: %s\n",
                 path.c_str(), problem->c_str());
    return std::nullopt;
  }
  std::string error;
  auto entry = prof::extract_trend(*text, &error);
  if (!entry) {
    std::fprintf(stderr, "nucon_bench: %s: %s\n", path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  return entry;
}

std::string hostname_tag() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf[0] != '\0' ? buf : "unknown";
}

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

struct CommonFlags {
  std::string history;
  std::string out;
  std::string sha;
  std::string machine;
  double tolerance = 0.25;
  bool informational = false;
  std::vector<std::string> files;
};

/// Shared flag loop; unknown flags abort with usage. Returns false on a
/// malformed invocation.
bool parse_flags(int argc, char** argv, int first, CommonFlags* out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--history" && i + 1 < argc) {
      out->history = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out->out = argv[++i];
    } else if (arg == "--sha" && i + 1 < argc) {
      out->sha = argv[++i];
    } else if (arg == "--machine" && i + 1 < argc) {
      out->machine = argv[++i];
    } else if (arg == "--tolerance" && i + 1 < argc) {
      out->tolerance = std::strtod(argv[++i], nullptr);
      if (out->tolerance <= 0.0) {
        std::fprintf(stderr, "nucon_bench: --tolerance must be > 0\n");
        return false;
      }
    } else if (arg == "--informational") {
      out->informational = true;
    } else if (!arg.empty() && arg[0] != '-') {
      out->files.push_back(arg);
    } else {
      std::fprintf(stderr, "nucon_bench: unknown or incomplete flag: %s\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

int cmd_record(const CommonFlags& flags) {
  if (flags.history.empty() || flags.files.empty()) return usage();
  std::string sha = flags.sha;
  if (sha.empty()) {
    const char* env = std::getenv("NUCON_GIT_SHA");
    sha = env != nullptr && env[0] != '\0' ? env : "unknown";
  }
  const std::string machine =
      flags.machine.empty() ? hostname_tag() : flags.machine;
  const std::string at = utc_now_iso8601();

  std::vector<std::string> lines;
  for (const std::string& path : flags.files) {
    auto entry = load_report(path);
    if (!entry) return 1;
    entry->machine = machine;
    entry->git_sha = sha;
    entry->recorded_at = at;
    lines.push_back(prof::ledger_line(*entry));
    std::printf("recorded %s: %zu metrics from %s\n", entry->bench.c_str(),
                entry->metrics.size(), path.c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(flags.history, ec);
  const std::string ledger = flags.history + "/ledger.jsonl";
  std::ofstream f(ledger, std::ios::app | std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "nucon_bench: cannot append to %s\n",
                 ledger.c_str());
    return 2;
  }
  for (const std::string& line : lines) f << line << "\n";
  f.flush();
  return f.good() ? 0 : 2;
}

/// The H4 scaling table is the wide-set performance contract, so its
/// steps/s cells are held to a tighter relative tolerance than the global
/// default: a slide that the 25% envelope would absorb still fails the
/// check. Keys are collected from both sides so a series that disappears
/// on one side still diffs under the tightened bound.
std::map<std::string, double> scaling_guard_overrides(
    const prof::TrendEntry& before, const prof::TrendEntry& after,
    double global_tolerance) {
  constexpr double kTight = 0.10;
  const double tol = kTight < global_tolerance ? kTight : global_tolerance;
  constexpr const char* kPrefix = "table:H4:";
  constexpr const char* kSuffix = ":steps/s";
  std::map<std::string, double> out;
  const auto scan = [&](const prof::TrendEntry& e) {
    for (const auto& [key, value] : e.metrics) {
      (void)value;
      const std::size_t suffix_len = std::strlen(kSuffix);
      if (key.rfind(kPrefix, 0) == 0 && key.size() > suffix_len &&
          key.compare(key.size() - suffix_len, suffix_len, kSuffix) == 0) {
        out[key] = tol;
      }
    }
  };
  scan(before);
  scan(after);
  return out;
}

int cmd_diff(const CommonFlags& flags) {
  if (flags.files.size() != 2) return usage();
  int failed = 0;
  const auto before = load_report(flags.files[0], &failed);
  if (!before) return failed;
  const auto after = load_report(flags.files[1], &failed);
  if (!after) return failed;
  const prof::TrendDiff diff =
      prof::diff_trends(*before, *after, flags.tolerance,
                        scaling_guard_overrides(*before, *after,
                                                flags.tolerance));
  std::printf("diff %s -> %s\n%s", flags.files[0].c_str(),
              flags.files[1].c_str(),
              prof::render_trend_diff(diff, flags.tolerance).c_str());
  return diff.has_regression() ? 1 : 0;
}

int cmd_check(const CommonFlags& flags) {
  if (flags.history.empty() || !flags.files.empty()) return usage();
  const std::string ledger = flags.history + "/ledger.jsonl";
  std::ifstream f(ledger, std::ios::binary);
  if (!f) {
    std::printf("nucon_bench: no ledger at %s (nothing recorded yet)\n",
                ledger.c_str());
    return 0;
  }

  // Each (bench, machine) pair is one series; keep its last two entries.
  std::map<std::string, std::vector<prof::TrendEntry>> series;
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string error;
    const auto entry = prof::parse_ledger_line(line, &error);
    if (!entry) {
      std::fprintf(stderr, "nucon_bench: %s:%d: %s\n", ledger.c_str(),
                   lineno, error.c_str());
      return 2;
    }
    auto& tail = series[entry->bench + "@" + entry->machine];
    tail.push_back(*entry);
    if (tail.size() > 2) tail.erase(tail.begin());
  }

  bool regressed = false;
  for (const auto& [key, entries] : series) {
    if (entries.size() < 2) {
      std::printf("%s: 1 entry, no baseline yet\n", key.c_str());
      continue;
    }
    const prof::TrendDiff diff = prof::diff_trends(
        entries[0], entries[1], flags.tolerance,
        scaling_guard_overrides(entries[0], entries[1], flags.tolerance));
    std::printf("%s: %s (%s) vs %s (%s)\n%s", key.c_str(),
                entries[0].git_sha.c_str(), entries[0].recorded_at.c_str(),
                entries[1].git_sha.c_str(), entries[1].recorded_at.c_str(),
                prof::render_trend_diff(diff, flags.tolerance).c_str());
    regressed = regressed || diff.has_regression();
  }
  if (regressed && flags.informational) {
    std::printf("regressions found, but --informational: exiting 0\n");
    return 0;
  }
  return regressed ? 1 : 0;
}

int cmd_manifest(const CommonFlags& flags) {
  if (flags.out.empty() || flags.files.empty()) return usage();
  std::ostringstream os;
  os << "{\"v\":1,\"reports\":[";
  bool all_valid = true;
  for (std::size_t i = 0; i < flags.files.size(); ++i) {
    const std::string& path = flags.files[i];
    const auto entry = load_report(path);
    if (!entry) {
      all_valid = false;
      continue;
    }
    if (i > 0) os << ",";
    os << "{\"file\":\""
       << util::json_escape(std::filesystem::path(path).filename().string())
       << "\",\"bench\":\"" << util::json_escape(entry->bench)
       << "\",\"metrics\":" << entry->metrics.size() << "}";
    std::printf("ok %s (%zu trend metrics)\n", path.c_str(),
                entry->metrics.size());
  }
  os << "]}";
  if (!all_valid) return 1;
  std::ofstream f(flags.out, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "nucon_bench: cannot write %s\n",
                 flags.out.c_str());
    return 2;
  }
  f << os.str() << "\n";
  f.flush();
  return f.good() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  CommonFlags flags;
  if (!parse_flags(argc, argv, 2, &flags)) return 2;
  if (cmd == "record") return cmd_record(flags);
  if (cmd == "diff") return cmd_diff(flags);
  if (cmd == "check") return cmd_check(flags);
  if (cmd == "manifest") return cmd_manifest(flags);
  std::fprintf(stderr, "nucon_bench: unknown command: %s\n", cmd.c_str());
  return usage();
}
