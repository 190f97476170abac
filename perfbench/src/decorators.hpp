// Timing decorators for the traced pass: an automaton wrapper and an
// oracle wrapper that fold every call into the spans of spans.hpp and
// otherwise forward verbatim, so the program sees identical behaviour —
// the model checker hashes the very save_state bytes the inner automaton
// writes, and the scheduler receives the very sends and decisions.
#pragma once

#include <memory>
#include <utility>

#include "core/anuc.hpp"
#include "fd/failure_detector.hpp"
#include "sim/automaton.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedAutomaton final : public nucon::ConsensusAutomaton {
 public:
  /// `report_end` makes the destructor report A_nuc's end-of-run state
  /// (history size, distrust counters); set it for the automata a run's
  /// factory creates, not for the model checker's clones.
  TimedAutomaton(std::unique_ptr<nucon::ConsensusAutomaton> inner,
                 bool report_end)
      : inner_(std::move(inner)), report_end_(report_end) {}

  ~TimedAutomaton() override {
    if (!report_end_) return;
    if (const auto* a = dynamic_cast<const nucon::Anuc*>(inner_.get())) {
      EndOfRun e;
      e.automata = 1;
      e.history_quorums = static_cast<std::int64_t>(a->history().size());
      e.distrust_calls = a->distrust_calls();
      e.distrust_hits = a->distrust_hits();
      add_end_of_run(e);
    }
  }

  void step(const nucon::Incoming* in, const nucon::FdValue& d,
            std::vector<nucon::Outgoing>& out) override {
    const std::int64_t t0 = now_ns();
    inner_->step(in, d, out);
    fold(Fold::kStep, now_ns() - t0);
  }

  [[nodiscard]] std::optional<nucon::Value> decision() const override {
    return inner_->decision();
  }

  [[nodiscard]] std::optional<nucon::Bytes> snapshot() const override {
    return inner_->snapshot();
  }

  [[nodiscard]] bool save_state(nucon::ByteWriter& w) const override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->save_state(w);
    fold(Fold::kSaveState, now_ns() - t0);
    return ok;
  }

  [[nodiscard]] bool restore_state(nucon::ByteReader& r) override {
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->restore_state(r);
    fold(Fold::kRestore, now_ns() - t0);
    return ok;
  }

  [[nodiscard]] const nucon::ConsensusAutomaton& inner() const {
    return *inner_;
  }

 protected:
  [[nodiscard]] TimedAutomaton* clone_raw() const override {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<nucon::ConsensusAutomaton> c = inner_->clone();
    fold(Fold::kClone, now_ns() - t0);
    return c ? new TimedAutomaton(std::move(c), false) : nullptr;
  }

 private:
  std::unique_ptr<nucon::ConsensusAutomaton> inner_;
  bool report_end_;
};

/// Wraps a factory so every automaton it makes is a TimedAutomaton.
[[nodiscard]] inline nucon::ConsensusFactory timed_factory(
    nucon::ConsensusFactory make, bool report_end) {
  return [make = std::move(make), report_end](nucon::Pid p, nucon::Value v)
             -> std::unique_ptr<nucon::ConsensusAutomaton> {
    return std::make_unique<TimedAutomaton>(make(p, v), report_end);
  };
}

class TimedOracle final : public nucon::Oracle {
 public:
  explicit TimedOracle(nucon::Oracle& inner) : inner_(inner) {}

  [[nodiscard]] nucon::FdValue value(nucon::Pid p, nucon::Time t) override {
    const std::int64_t t0 = now_ns();
    nucon::FdValue v = inner_.value(p, t);
    fold(Fold::kFdValue, now_ns() - t0);
    return v;
  }

 private:
  nucon::Oracle& inner_;
};

}  // namespace perfbench
