#include "trace/trace_reader.hpp"

#include "trace/trace_recorder.hpp"

namespace nucon::trace {
namespace {

using util::JsonValue;

/// A line that breaks the schema; parse_trace reports it with the line
/// number.
struct BadLine {
  std::string message;
};

std::string quoted(const char* key) { return std::string("\"") + key + "\""; }

/// Integer member `key` of `obj`, `absent` when the key is missing.
std::int64_t integer(const JsonValue& obj, const char* key,
                     std::int64_t absent) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return absent;
  if (const auto i = v->as_int()) return *i;
  throw BadLine{quoted(key) + " is not an integer"};
}

Pid pid_of(const JsonValue& v, const char* key, Pid n) {
  const auto i = v.as_int();
  if (!i || *i < 0 || *i >= n) {
    throw BadLine{quoted(key) + " holds a pid outside [0, " +
                  std::to_string(n) + ")"};
  }
  return static_cast<Pid>(*i);
}

/// Pid member `key` of `obj`, checked against [0, n); -1 when missing.
Pid pid(const JsonValue& obj, const char* key, Pid n) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? -1 : pid_of(*v, key, n);
}

/// Array member `key` of `obj`, empty when missing.
const std::vector<JsonValue>& array(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v != nullptr && !v->is_array()) {
    throw BadLine{quoted(key) + " is not an array"};
  }
  return obj.array_at(key);
}

ProcessSet pid_set(const JsonValue& obj, const char* key, Pid n) {
  ProcessSet out;
  for (const JsonValue& item : array(obj, key)) out.insert(pid_of(item, key, n));
  return out;
}

/// An oracle event's `fd` object, rendered back through fd_json: exactly
/// the text the recorder wrote.
std::string fd_text(const JsonValue& fd, Pid n) {
  FdValue d;
  if (fd.find("leader") != nullptr) d.set_leader(pid(fd, "leader", n));
  if (fd.find("quorum") != nullptr) d.set_quorum(pid_set(fd, "quorum", n));
  if (fd.find("suspects") != nullptr) {
    d.set_suspects(pid_set(fd, "suspects", n));
  }
  return fd_json(d);
}

void read_meta(const JsonValue& obj, ParsedTrace& trace) {
  // Version gate first: a future schema may change every field below, so
  // nothing else on the line is trusted before the check. A meta line
  // without "v" is a pre-versioning trace and reads as version 1, which is
  // exactly the schema it carries.
  trace.version = integer(obj, "v", kTraceSchemaVersion);
  if (trace.version != kTraceSchemaVersion) {
    throw BadLine{"unsupported trace schema version " +
                  std::to_string(trace.version) + " (this reader supports " +
                  std::to_string(kTraceSchemaVersion) + ")"};
  }
  if (obj.find("n") == nullptr || obj.find("correct") == nullptr) {
    throw BadLine{"meta line missing \"n\" or \"correct\""};
  }
  const std::int64_t n = integer(obj, "n", 0);
  if (n < 1 || n > kMaxProcesses) {
    throw BadLine{"meta \"n\" outside 1.." + std::to_string(kMaxProcesses)};
  }
  trace.n = static_cast<Pid>(n);
  trace.correct = pid_set(obj, "correct", trace.n);
  for (const JsonValue& crash : array(obj, "crashes")) pid(crash, "p", trace.n);
  trace.artifact = obj.string_at("artifact").value_or("");
  trace.expect = obj.string_at("expect").value_or("");
}

ParsedEvent read_event(const JsonValue& obj, const std::string& kind,
                       Pid n) {
  ParsedEvent ev;
  ev.kind = kind;
  ev.t = integer(obj, "t", -1);
  // Every event but the trailing verdict belongs to a process.
  if (kind != "verdict" && obj.find("p") == nullptr) {
    throw BadLine{"event without \"p\""};
  }
  ev.p = pid(obj, "p", n);
  // A step carries its trigger as recv:{from,seq}; send and deliver carry
  // to/from and seq at the top level.
  const JsonValue* recv = obj.find("recv");
  const JsonValue& link = recv != nullptr ? *recv : obj;
  ev.peer = pid(obj, "to", n);
  if (link.find("from") != nullptr) ev.peer = pid(link, "from", n);
  ev.seq = integer(link, "seq", -1);
  ev.bytes = integer(obj, "bytes", -1);
  ev.delay = integer(obj, "delay", -1);
  if (obj.find("value") != nullptr) ev.value = integer(obj, "value", 0);
  if (const JsonValue* hash = obj.find("hash")) {
    const auto h = hash->as_uint();
    if (!h) throw BadLine{"\"hash\" is not an unsigned 64-bit integer"};
    ev.state_hash = *h;
  }
  const JsonValue* forced = obj.find("forced");
  ev.forced = forced != nullptr && forced->boolean;
  if (const JsonValue* fd = obj.find("fd")) ev.fd = fd_text(*fd, n);
  return ev;
}

}  // namespace

std::optional<ParsedTrace> parse_trace(const std::string& jsonl,
                                       ParseError* error) {
  ParsedTrace trace;
  bool saw_meta = false;
  std::size_t begin = 0;
  std::size_t line_no = 0;
  try {
    while (begin < jsonl.size()) {
      auto end = jsonl.find('\n', begin);
      if (end == std::string::npos) end = jsonl.size();
      std::string line = jsonl.substr(begin, end - begin);
      begin = end + 1;
      ++line_no;
      if (line.empty()) continue;

      util::JsonParseError json_error;
      const auto doc = util::parse_json(line, &json_error);
      if (!doc) throw BadLine{"not JSON: " + json_error.message};
      const auto kind = doc->string_at("k");
      if (!kind) {
        throw BadLine{"no \"k\" (event kind) field: " +
                      (line.size() > 60 ? line.substr(0, 60) + "..." : line)};
      }
      if (*kind == "meta") {
        if (saw_meta) throw BadLine{"second meta line"};
        read_meta(*doc, trace);
        saw_meta = true;
        continue;
      }
      // The meta line's n bounds every pid after it.
      if (!saw_meta) throw BadLine{"event before the meta line"};
      ParsedEvent ev = read_event(*doc, *kind, trace.n);
      ev.raw = std::move(line);
      trace.events.push_back(std::move(ev));
    }
    if (!saw_meta) {
      line_no = 0;
      throw BadLine{"no meta line in document"};
    }
  } catch (const BadLine& bad) {
    if (error) *error = ParseError{bad.message, line_no};
    return std::nullopt;
  }
  return trace;
}

DivergenceReport find_divergence(const ParsedTrace& trace) {
  DivergenceReport report;
  // Earliest decide overall and earliest by a correct process, per value
  // seen so far; a conflict is the first decide differing from any of them.
  struct Seen {
    Time t;
    Pid p;
    std::int64_t value;
    std::string fd;  // last oracle sample of p at its decide step
  };
  std::vector<Seen> all, correct_only;

  // Oracle events precede the decide of the same step in recorded order,
  // so "last fd seen so far" at the decide event is exactly the FD value
  // the decider sampled at (or last before) its deciding step.
  std::vector<std::string> last_fd(static_cast<std::size_t>(trace.n));
  const auto fd_of = [&last_fd](Pid p) -> const std::string& {
    return last_fd[static_cast<std::size_t>(p)];
  };

  const auto conflict = [](const std::vector<Seen>& seen,
                           const ParsedEvent& ev) -> const Seen* {
    for (const Seen& s : seen) {
      if (s.value != *ev.value) return &s;
    }
    return nullptr;
  };
  const auto fill = [&fd_of](Divergence& d, const ParsedEvent& ev,
                             const Seen& s) {
    d.found = true;
    d.t = ev.t;
    d.p = ev.p;
    d.value = *ev.value;
    d.earlier_t = s.t;
    d.earlier_p = s.p;
    d.earlier_value = s.value;
    d.fd = fd_of(ev.p);
    d.earlier_fd = s.fd;
  };

  for (const ParsedEvent& ev : trace.events) {
    if (ev.kind == "oracle") {
      last_fd[static_cast<std::size_t>(ev.p)] = ev.fd;
      continue;
    }
    if (ev.kind != "decide" || !ev.value) continue;
    if (!report.uniform.found) {
      if (const Seen* s = conflict(all, ev)) fill(report.uniform, ev, *s);
    }
    if (!report.nonuniform.found && trace.is_correct(ev.p)) {
      if (const Seen* s = conflict(correct_only, ev)) {
        fill(report.nonuniform, ev, *s);
      }
    }
    const Seen seen{ev.t, ev.p, *ev.value, fd_of(ev.p)};
    all.push_back(seen);
    if (trace.is_correct(ev.p)) correct_only.push_back(seen);
  }
  return report;
}

}  // namespace nucon::trace
