// Parsing and analysis of recorded JSONL traces.
//
// The inverse of trace_recorder.hpp, plus the one analysis the debugging
// workflow is built around: given the decide events of a run, find the
// first step at which agreement diverged — separately for the uniform
// flavor (any two deciders differ) and the nonuniform flavor (two
// *correct* deciders differ), because the gap between those two is the
// subject of the paper. tools/trace_dump renders what this header
// computes.
//
// Each line is parsed with util/minijson and read against the schema the
// recorder emits (documented in EXPERIMENTS.md). The meta line comes
// first; its `n` bounds every pid read after it, so a hand-edited or
// corrupt trace gets a line-numbered ParseError, never an out-of-range
// ProcessSet insert.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/failure_pattern.hpp"
#include "util/minijson.hpp"
#include "util/process_set.hpp"

namespace nucon::trace {

/// The JSONL schema version this reader understands. The recorder stamps
/// it into the meta record (`"v":1`); a trace carrying a different version
/// is rejected up front instead of being silently misparsed.
inline constexpr std::int64_t kTraceSchemaVersion = 1;

struct ParsedEvent {
  std::string kind;  // step, oracle, send, deliver, state, decide, verdict
  Time t = -1;
  Pid p = -1;  // in [0, n) on every event but the verdict
  /// send: destination; deliver/step-recv: sender. -1 when absent.
  Pid peer = -1;
  std::int64_t seq = -1;
  std::int64_t bytes = -1;
  std::int64_t delay = -1;
  bool forced = false;
  std::optional<std::int64_t> value;  // decide
  std::uint64_t state_hash = 0;       // state
  std::string fd;                     // oracle: the value as fd_json text
  std::string raw;                    // the whole line
};

struct ParsedTrace {
  // Meta header.
  std::int64_t version = kTraceSchemaVersion;
  std::string artifact;
  std::string expect;
  Pid n = 0;
  ProcessSet correct;

  std::vector<ParsedEvent> events;  // in recorded (= run) order

  [[nodiscard]] bool is_correct(Pid p) const { return correct.contains(p); }
};

/// Why a parse failed: a one-line message plus the 1-based line number of
/// the offending JSONL line (0 when the document as a whole is at fault,
/// e.g. no meta line anywhere). The CLI tools print exactly this.
using ParseError = util::JsonParseError;

/// Parses a whole JSONL document. Returns nullopt if the meta line is
/// missing or not first, the schema version is unknown, `n` lies outside
/// 1..kMaxProcesses, a pid lies outside [0, n), an event other than the
/// verdict has no `p`, or any line is not a JSON object of the schema;
/// when `error` is non-null it receives the diagnostic.
[[nodiscard]] std::optional<ParsedTrace> parse_trace(const std::string& jsonl,
                                                     ParseError* error = nullptr);

/// One agreement-divergence finding: the decide event that first
/// contradicted an earlier decide.
struct Divergence {
  bool found = false;
  Time t = 0;
  Pid p = -1;
  std::int64_t value = 0;
  // The earlier, contradicted decide.
  Time earlier_t = 0;
  Pid earlier_p = -1;
  std::int64_t earlier_value = 0;
  /// The FD values the two deciders last sampled at (or before) their
  /// decide steps — `fd` JSON fragments, empty when the trace carries
  /// no oracle events. The paper's indistinguishability arguments turn on
  /// exactly these: what each decider's detector told it when it decided.
  std::string fd;
  std::string earlier_fd;
};

struct DivergenceReport {
  /// First decide differing from any earlier decide.
  Divergence uniform;
  /// First decide by a correct process differing from an earlier decide by
  /// a correct process.
  Divergence nonuniform;
};

[[nodiscard]] DivergenceReport find_divergence(const ParsedTrace& trace);

}  // namespace nucon::trace
