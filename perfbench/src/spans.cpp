#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct ThreadBuf {
  std::uint32_t thread = 0;
  FoldTable folds;
  std::vector<Span> spans;
  EndOfRun end_of_run;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;  // guarded by mu
};

Registry& registry() {
  static Registry r;
  return r;
}

std::atomic<std::uint64_t> next_span_id{1};

ThreadBuf& local() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->thread = static_cast<std::uint32_t>(r.bufs.size());
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

const char* fold_name(Fold f) {
  switch (f) {
    case Fold::kStep:
      return "core.step";
    case Fold::kSaveState:
      return "core.save_state";
    case Fold::kRestore:
      return "core.restore_state";
    case Fold::kClone:
      return "core.clone";
    case Fold::kFdValue:
      return "fd.value";
    case Fold::kCount:
      break;
  }
  return "?";
}

void fold(Fold f, std::int64_t ns) {
  local().folds[static_cast<int>(f)].add(ns);
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(name), id_(next_span_id.fetch_add(1, std::memory_order_relaxed)) {
  ThreadBuf& b = local();
  parent_ = b.open.empty() ? 0 : b.open.back();
  b.open.push_back(id_);
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t end = now_ns();
  ThreadBuf& b = local();
  b.open.pop_back();
  b.spans.push_back({name_, id_, parent_, start_ns_, end, b.thread});
}

void add_end_of_run(const EndOfRun& e) {
  EndOfRun& t = local().end_of_run;
  t.automata += e.automata;
  t.history_quorums += e.history_quorums;
  t.distrust_calls += e.distrust_calls;
  t.distrust_hits += e.distrust_hits;
}

std::vector<double> Recorded::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

Recorded collect() {
  Recorded out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    for (int f = 0; f < kFoldCount; ++f) out.folds[f].merge(b->folds[f]);
    out.spans.insert(out.spans.end(), b->spans.begin(), b->spans.end());
    out.end_of_run.automata += b->end_of_run.automata;
    out.end_of_run.history_quorums += b->end_of_run.history_quorums;
    out.end_of_run.distrust_calls += b->end_of_run.distrust_calls;
    out.end_of_run.distrust_hits += b->end_of_run.distrust_hits;
  }
  return out;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.bufs) {
    b->folds = FoldTable{};
    b->spans.clear();
    b->end_of_run = EndOfRun{};
  }
}

bool write_spans(const Recorded& r, const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  for (const Span& s : r.spans) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
      << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
  for (int i = 0; i < kFoldCount; ++i) {
    const nucon::trace::Histogram& h = r.folds[i];
    if (h.count() == 0) continue;
    f << "{\"fold\":\"" << fold_name(static_cast<Fold>(i))
      << "\",\"count\":" << h.count() << ",\"sum_ns\":" << h.sum()
      << ",\"min_ns\":" << h.min() << ",\"max_ns\":" << h.max()
      << ",\"p50_ns\":" << h.quantile(0.5) << ",\"p99_ns\":" << h.quantile(0.99)
      << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
