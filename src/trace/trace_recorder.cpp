#include "trace/trace_recorder.hpp"

#include "check/consensus_checker.hpp"
#include "util/minijson.hpp"

namespace nucon::trace {
namespace {

using util::json_escape;

std::string set_json(const ProcessSet& s) {
  std::string out = "[";
  bool first = true;
  for (Pid p : s) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(p);
  }
  return out + "]";
}

/// The fields every per-process event line starts with.
std::string event_head(const char* kind, Time t, Pid p) {
  return std::string("{\"k\":\"") + kind + "\",\"t\":" + std::to_string(t) +
         ",\"p\":" + std::to_string(p);
}

}  // namespace

std::string fd_json(const FdValue& d) {
  std::string out = "{";
  const char* sep = "";
  if (d.has_leader()) {
    out += "\"leader\":" + std::to_string(d.leader());
    sep = ",";
  }
  if (d.has_quorum()) {
    out += sep;
    out += "\"quorum\":" + set_json(d.quorum());
    sep = ",";
  }
  if (d.has_suspects()) {
    out += sep;
    out += "\"suspects\":" + set_json(d.suspects());
  }
  return out + "}";
}

void TraceRecorder::line(std::string s) {
  out_ += s;
  out_ += '\n';
}

void TraceRecorder::begin_run(const FailurePattern& fp,
                              const std::string& artifact,
                              const std::string& expect) {
  std::string crashes = "[";
  bool first = true;
  for (Pid p : fp.faulty()) {
    if (!first) crashes += ",";
    first = false;
    crashes += "{\"p\":" + std::to_string(p) +
               ",\"at\":" + std::to_string(fp.crash_time(p)) + "}";
  }
  crashes += "]";
  line("{\"k\":\"meta\",\"v\":1,\"artifact\":\"" + json_escape(artifact) +
       "\",\"n\":" + std::to_string(fp.n()) + ",\"correct\":" +
       set_json(fp.correct()) + ",\"crashes\":" + crashes + ",\"expect\":\"" +
       json_escape(expect) + "\"}");
}

void TraceRecorder::on_step(const StepRecord& rec) {
  if (!opts_.steps) return;
  std::string s = event_head("step", rec.t, rec.p);
  if (rec.received) {
    s += ",\"recv\":{\"from\":" + std::to_string(rec.received->sender) +
         ",\"seq\":" + std::to_string(rec.received->seq) + "}";
  }
  line(s + "}");
}

void TraceRecorder::on_oracle_query(Pid p, Time t, const FdValue& d) {
  if (!opts_.oracle_queries) return;
  line(event_head("oracle", t, p) + ",\"fd\":" + fd_json(d) + "}");
}

void TraceRecorder::on_send(Pid from, const Message& m) {
  if (!opts_.sends) return;
  line(event_head("send", m.sent_at, from) + ",\"to\":" +
       std::to_string(m.to) + ",\"seq\":" + std::to_string(m.id.seq) +
       ",\"bytes\":" + std::to_string(m.payload.size()) + "}");
}

void TraceRecorder::on_deliver(Pid to, const Message& m, Time now,
                               bool forced) {
  if (!opts_.delivers) return;
  std::string s = event_head("deliver", now, to) +
                  ",\"from\":" + std::to_string(m.id.sender) +
                  ",\"seq\":" + std::to_string(m.id.seq) +
                  ",\"delay\":" + std::to_string(now - m.sent_at);
  if (forced) s += ",\"forced\":true";
  line(s + "}");
}

void TraceRecorder::on_state_transition(Pid p, Time t,
                                        std::uint64_t state_hash) {
  if (!opts_.state_hashes) return;
  line(event_head("state", t, p) + ",\"hash\":" + std::to_string(state_hash) +
       "}");
}

void TraceRecorder::on_decide(Pid p, Time t, Value value) {
  if (!opts_.decides) return;
  line(event_head("decide", t, p) + ",\"value\":" + std::to_string(value) +
       "}");
}

void TraceRecorder::end_run(const ConsensusVerdict& v) {
  line(std::string("{\"k\":\"verdict\",\"termination\":") +
       (v.termination ? "true" : "false") + ",\"validity\":" +
       (v.validity ? "true" : "false") + ",\"nonuniform_agreement\":" +
       (v.nonuniform_agreement ? "true" : "false") +
       ",\"uniform_agreement\":" + (v.uniform_agreement ? "true" : "false") +
       "}");
}

std::uint64_t state_hash_of(const Bytes& snapshot) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : snapshot) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nucon::trace
