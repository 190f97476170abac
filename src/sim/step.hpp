// The step kernel: the paper's atomic step (p, m, d, A) of §2.4, written
// once for every executor that runs automata over a MessageBuffer — the
// scheduler, replay, the sample-DAG chain simulation and model-checker
// witness replay.
//
// A step has two halves. step() hands the received message (or lambda)
// and the failure-detector value to the automaton and collects its sends;
// post() stamps each send MsgId{p, ++seq} at time t and appends it to the
// buffer. Which message a step receives is the caller's choice (seeded
// policy, recorded id, oldest pending), and so is the bookkeeping each
// posted message gets: post() shows every message to the caller's
// callback before it enters the buffer. The scheduler times the halves as
// separate profile phases; the other callers use operator(), which runs
// both.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/message.hpp"

namespace nucon {

class StepKernel {
 public:
  /// Kernel for processes [0, n) sending into `buffer`.
  StepKernel(Pid n, MessageBuffer& buffer)
      : buffer_(&buffer), send_seq_(static_cast<std::size_t>(n), 0) {}

  /// Step half: `a` receives `msg` (nullptr for lambda) and reads `d`.
  /// Its sends wait in the kernel for post().
  void step(Automaton& a, const Message* msg, const FdValue& d) {
    sends_.clear();
    Incoming in;
    if (msg != nullptr) {
      in = Incoming{msg->id.sender, &msg->payload.get(), &msg->payload};
    }
    a.step(msg != nullptr ? &in : nullptr, d, sends_);
  }

  /// Send half: turns the pending sends of p's step into messages sent at
  /// time t. `on_send(Message&)` sees each one before it is buffered and
  /// may complete it (e.g. set ready_at, which defaults to t).
  template <typename OnSend>
  void post(Pid p, Time t, OnSend&& on_send) {
    std::uint64_t& seq = send_seq_[static_cast<std::size_t>(p)];
    for (Outgoing& o : sends_) {
      assert(o.to >= 0 && o.to < static_cast<Pid>(send_seq_.size()));
      Message m;
      m.id = MsgId{p, ++seq};
      m.to = o.to;
      m.sent_at = t;
      m.ready_at = t;
      m.payload = std::move(o.payload);  // moves the share, not the bytes
      on_send(m);
      buffer_->add(std::move(m));
    }
  }

  /// Both halves: process p's whole step at time t.
  template <typename OnSend>
  void operator()(Automaton& a, Pid p, const Message* msg, const FdValue& d,
                  Time t, OnSend&& on_send) {
    step(a, msg, d);
    post(p, t, on_send);
  }

 private:
  MessageBuffer* buffer_;
  std::vector<std::uint64_t> send_seq_;
  std::vector<Outgoing> sends_;
};

}  // namespace nucon
