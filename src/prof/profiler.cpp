#include "prof/profiler.hpp"

#include <chrono>

#include "trace/metrics.hpp"

namespace nucon::prof {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kStep:
      return "step";
    case Phase::kDeliveryChoice:
      return "delivery_choice";
    case Phase::kOracleSample:
      return "oracle_sample";
    case Phase::kTraceHook:
      return "trace_hook";
    case Phase::kAutomatonStep:
      return "automaton_step";
    case Phase::kPayloadEncode:
      return "payload_encode";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

double ticks_per_second() {
#if defined(__x86_64__) || defined(__i386__)
  // Calibrate rdtsc against the steady clock over a few milliseconds,
  // once per process. Invariant-TSC hardware (everything this project
  // targets) makes the rate constant, so one calibration suffices.
  static const double rate = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = ticks_now();
    // Busy-wait ~2ms; long enough to drown clock-read latency, short
    // enough to be invisible at process startup.
    while (std::chrono::steady_clock::now() - wall0 <
           std::chrono::milliseconds(2)) {
    }
    const std::uint64_t t1 = ticks_now();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
    return secs > 0.0 ? static_cast<double>(t1 - t0) / secs : 1e9;
  }();
  return rate;
#else
  return 1e9;  // fallback clock already counts nanoseconds
#endif
}

bool ProfileCollector::empty() const {
  for (const PhaseStats& s : phases_) {
    if (s.calls != 0) return false;
  }
  return true;
}

void ProfileCollector::merge(const ProfileCollector& other) {
  for (int i = 0; i < kPhaseCount; ++i) {
    phases_[static_cast<std::size_t>(i)].calls +=
        other.phases_[static_cast<std::size_t>(i)].calls;
    phases_[static_cast<std::size_t>(i)].ticks +=
        other.phases_[static_cast<std::size_t>(i)].ticks;
  }
}

void ProfileCollector::fold_counts_into(trace::MetricsRegistry& metrics) const {
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase ph = static_cast<Phase>(i);
    metrics.counter(std::string("prof.") + phase_name(ph) + ".calls") +=
        phase(ph).calls;
  }
}

double ProfileCollector::seconds(Phase ph) const {
  return static_cast<double>(phase(ph).ticks) / ticks_per_second();
}

double ProfileCollector::ns_per_call(Phase ph) const {
  const PhaseStats& s = phase(ph);
  if (s.calls == 0) return 0.0;
  return seconds(ph) * 1e9 / static_cast<double>(s.calls);
}

double ProfileCollector::covered_fraction() const {
  const std::int64_t envelope = phase(Phase::kStep).ticks;
  // An empty (or clamped-to-zero) envelope reports zero coverage: "no
  // timing data" must be distinguishable from "fully covered" in reports.
  if (envelope <= 0) return 0.0;
  std::int64_t inner = 0;
  for (int i = 0; i < kPhaseCount; ++i) {
    if (static_cast<Phase>(i) == Phase::kStep) continue;
    inner += phases_[static_cast<std::size_t>(i)].ticks;
  }
  return static_cast<double>(inner) / static_cast<double>(envelope);
}

}  // namespace nucon::prof
