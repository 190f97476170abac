// Structured run traces: typed events streamed as deterministic JSONL.
//
// A TraceRecorder attached to SchedulerOptions::trace captures what
// happens inside one simulated run as a stream of typed events — step,
// send, deliver, oracle-query, state-transition, decide — one JSON object
// per line. The byte stream is a pure function of the run (no wall-clock
// timestamps, no pointers), so tracing the same SweepPoint from any
// thread, process or machine produces byte-identical files; that is what
// makes a trace attached to a failing sweep job trustworthy evidence.
//
// Cost discipline: every scheduler hook goes through NUCON_TRACE, which
// is a single null-pointer test when tracing is compiled in (the default)
// and nothing at all when the library is built with
// -DNUCON_DISABLE_TRACING (CMake option NUCON_DISABLE_TRACING). Runs
// without a recorder attached therefore pay near zero.
//
// Lines are built with util/minijson's json_escape, parsed back by
// trace_reader.hpp and rendered by tools/trace_dump; the schema is
// documented in EXPERIMENTS.md.
#pragma once

#include <string>

#include "sim/message.hpp"
#include "sim/run.hpp"

namespace nucon {
struct ConsensusVerdict;
}  // namespace nucon

namespace nucon::trace {

/// Hook guard: `NUCON_TRACE(opts.trace, on_send(p, m));` expands to a
/// null-check + call, or to nothing under NUCON_DISABLE_TRACING.
#ifdef NUCON_DISABLE_TRACING
#define NUCON_TRACE(recorder, call) ((void)0)
#else
#define NUCON_TRACE(recorder, call)     \
  do {                                  \
    if (recorder) (recorder)->call;     \
  } while (0)
#endif

struct RecorderOptions {
  /// Per-event-kind switches, all cheap; state hashes are the exception
  /// (they snapshot() the stepping automaton every step) and default off.
  bool steps = true;
  bool oracle_queries = true;
  bool sends = true;
  bool delivers = true;
  bool state_hashes = false;
  bool decides = true;
};

class TraceRecorder {
 public:
  using Options = RecorderOptions;

  explicit TraceRecorder(Options opts = Options()) : opts_(opts) {}

  [[nodiscard]] const Options& options() const { return opts_; }

  /// Emits the meta header line. `artifact` is a free-form label (the
  /// sweep engine passes the replay artifact string); `expect` names the
  /// agreement flavor the run is expected to satisfy.
  void begin_run(const FailurePattern& fp, const std::string& artifact,
                 const std::string& expect);

  // --- scheduler hook points -------------------------------------------
  void on_step(const StepRecord& rec);
  void on_oracle_query(Pid p, Time t, const FdValue& d);
  void on_send(Pid from, const Message& m);
  /// `forced` marks a fairness-backstop delivery (message overdue).
  void on_deliver(Pid to, const Message& m, Time now, bool forced);
  void on_state_transition(Pid p, Time t, std::uint64_t state_hash);
  void on_decide(Pid p, Time t, Value value);

  /// Emits the trailing verdict line: the harness's final verdict.
  void end_run(const ConsensusVerdict& verdict);

  /// The JSONL document so far (one event per line, meta line first).
  [[nodiscard]] const std::string& jsonl() const { return out_; }

 private:
  void line(std::string s);

  Options opts_;
  std::string out_;
};

/// FdValue as a JSON object with only the present components, e.g.
/// `{"leader":2,"quorum":[0,2]}`: the `fd` field of oracle events.
[[nodiscard]] std::string fd_json(const FdValue& d);

/// FNV-1a over an automaton snapshot, the state fingerprint carried by
/// state-transition events.
[[nodiscard]] std::uint64_t state_hash_of(const Bytes& snapshot);

}  // namespace nucon::trace
