// Outside-in spans for the benchmark's traced pass.
//
// Every span is recorded by the benchmark's own code around a call into a
// library module; nothing inside src/ is instrumented. Two kinds:
//
//  * run-level spans (one sweep point, one consensus run, one model-check
//    call, one fuzz execution) are kept individually — name, id, parent,
//    thread, start, end — and written out as JSONL when the benchmark ends;
//  * spans below run level (automaton step / save_state / restore_state /
//    clone, failure-detector queries) would be millions per run, so they
//    are folded on the recording thread into count + sum + log2 histogram
//    per name, which bounds memory whatever the run length.
//
// Recording is thread-local (sweep and model-checker workers record in
// parallel without locks); each thread's buffers register once with a
// global list and are merged by the reader after the workers joined.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans below run level, folded per name.
enum class Fold : int {
  kStep,        // ConsensusAutomaton::step         (core)
  kSaveState,   // ConsensusAutomaton::save_state   (core)
  kRestore,     // ConsensusAutomaton::restore_state (core)
  kClone,       // ConsensusAutomaton::clone        (core)
  kFdValue,     // Oracle::value / McOptions::fd    (fd)
  kCount,
};
inline constexpr int kFoldCount = static_cast<int>(Fold::kCount);
[[nodiscard]] const char* fold_name(Fold f);

using FoldTable = std::array<nucon::trace::Histogram, kFoldCount>;

/// Adds one folded span of `ns` nanoseconds on the calling thread.
void fold(Fold f, std::int64_t ns);

/// One run-level span.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// RAII run-level span; nests under the thread's innermost open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since the span opened.
  [[nodiscard]] double elapsed() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

 private:
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::int64_t start_ns_;
};

/// Per-run state the automaton decorator reports when the run's automata
/// are destroyed (A_nuc's history size and distrust counters).
struct EndOfRun {
  std::int64_t automata = 0;  // A_nuc automata reported
  std::int64_t history_quorums = 0;
  std::int64_t distrust_calls = 0;
  std::int64_t distrust_hits = 0;
};
void add_end_of_run(const EndOfRun& e);

/// Everything recorded so far on every thread (call once the workers are
/// idle or joined).
struct Recorded {
  FoldTable folds;
  std::vector<Span> spans;
  EndOfRun end_of_run;

  /// Sum of folded nanoseconds / count of a fold.
  [[nodiscard]] double fold_seconds(Fold f) const {
    return static_cast<double>(folds[static_cast<int>(f)].sum()) * 1e-9;
  }
  [[nodiscard]] std::int64_t fold_count(Fold f) const {
    return folds[static_cast<int>(f)].count();
  }
  /// Durations (seconds) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
};
[[nodiscard]] Recorded collect();

/// Drops everything recorded so far.
void reset();

/// Writes the run-level spans (one JSON object per line) followed by one
/// summary line per non-empty fold. Returns false on I/O failure.
bool write_spans(const Recorded& r, const std::string& path);

}  // namespace perfbench
