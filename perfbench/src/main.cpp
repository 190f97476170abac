// nucon_perfbench: runs one benchmark workload and prints one JSON line of
// raw results (operation timings, exact work fingerprint, failures, and in
// traced mode the per-layer metrics). perfbench/run.py builds this binary,
// turns the raw results into the benchmark's metrics and checks the pins.
//
//   nucon_perfbench --workload paper-sweep --seed 1 --seconds 25 --trace 0
//       [--tiny] [--setup-only] [--spawn-ns N] [--out-dir D]
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_metrics(
    const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + json_number(vu.first) +
           ",\"unit\":" + json_string(vu.second) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "nucon_perfbench: %s\nusage: nucon_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 [--tiny] [--setup-only] "
               "[--spawn-ns N] [--out-dir D]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.spawn_ns = perfbench::now_ns();
  o.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        o.trace = v != "0";
      } else if (flag == "--spawn-ns") {
        o.spawn_ns = std::stoll(v);
      } else if (flag == "--out-dir") {
        o.out_dir = v;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + v).c_str());
    }
  }
  if (o.workload.empty()) return usage("--workload is required");

  perfbench::Result r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nucon_perfbench: %s\n", e.what());
    return 1;
  }

  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  std::ostringstream os;
  os << "{\"workload\":" << json_string(o.workload) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0) << ",\"threads\":" << o.threads
     << ",\"setup_s\":" << json_number(r.setup_s)
     << ",\"peak_rss_mb\":" << json_number(static_cast<double>(u.ru_maxrss) / 1024.0)
     << ",\"item_unit\":" << json_string(r.item_unit) << ",\"op_seconds\":[";
  for (std::size_t i = 0; i < r.op_seconds.size(); ++i) {
    os << (i ? "," : "") << json_number(r.op_seconds[i]);
  }
  os << "],\"op_items\":[";
  for (std::size_t i = 0; i < r.op_items.size(); ++i) {
    os << (i ? "," : "") << json_number(r.op_items[i]);
  }
  os << "],\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? "," : "") << json_string(r.errors[i]);
  }
  os << "],\"fingerprint\":{";
  bool first = true;
  for (const auto& [k, v] : r.fingerprint) {
    os << (first ? "" : ",") << json_string(k) << ":" << v;
    first = false;
  }
  os << "},\"headline\":" << json_metrics(r.headline)
     << ",\"layers\":" << json_metrics(r.layers) << "}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}
