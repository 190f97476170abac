#include "dag/sample_dag.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace nucon {

SampleDag::SampleDag(Pid n) : n_(n), chains_(static_cast<std::size_t>(n)) {
  assert(n >= 1 && n <= kMaxProcesses);
}

const SampleDag::Node& SampleDag::node(NodeRef v) const {
  assert(contains(v));
  return chains_[static_cast<std::size_t>(v.q)][v.k - 1];
}

std::vector<std::uint32_t> SampleDag::frontier() const {
  std::vector<std::uint32_t> f(static_cast<std::size_t>(n_));
  for (Pid q = 0; q < n_; ++q) f[static_cast<std::size_t>(q)] = count_of(q);
  return f;
}

NodeRef SampleDag::take_sample(Pid p, const FdValue& d) {
  assert(p >= 0 && p < n_);
  Node node;
  node.d = d;
  node.vc = frontier();
  chains_[static_cast<std::size_t>(p)].push_back(std::move(node));
  return NodeRef{p, count_of(p)};
}

void SampleDag::merge_from(const SampleDag& other) {
  assert(other.n_ == n_);
  for (Pid q = 0; q < n_; ++q) {
    auto& mine = chains_[static_cast<std::size_t>(q)];
    const auto& theirs = other.chains_[static_cast<std::size_t>(q)];
    for (std::size_t k = mine.size(); k < theirs.size(); ++k) {
      mine.push_back(theirs[k]);
    }
  }
}

std::size_t SampleDag::total_nodes() const {
  std::size_t total = 0;
  for (const auto& chain : chains_) total += chain.size();
  return total;
}

std::uint64_t SampleDag::total_edges() const {
  std::uint64_t total = 0;
  for (const auto& chain : chains_) {
    for (const Node& node : chain) {
      total += std::accumulate(node.vc.begin(), node.vc.end(), std::uint64_t{0});
    }
  }
  return total;
}

Bytes SampleDag::serialize() const {
  ByteWriter w;
  w.process_count(n_);
  for (const auto& chain : chains_) {
    w.uvarint(chain.size());
    for (const Node& node : chain) {
      node.d.encode(w, n_);
      for (std::uint32_t c : node.vc) w.uvarint(c);
    }
  }
  return w.take();
}

std::optional<SampleDag> SampleDag::deserialize(const Bytes& data) {
  ByteReader r(data);
  const auto n = r.process_count();
  if (!n) return std::nullopt;
  SampleDag dag(*n);
  for (Pid q = 0; q < *n; ++q) {
    const auto len = r.uvarint();
    // Each node consumes at least one byte per process plus the value, so
    // any length claim beyond the remaining input is malformed; rejecting
    // it here keeps attacker-controlled lengths from driving allocation.
    if (!len || *len > r.remaining()) return std::nullopt;
    auto& chain = dag.chains_[static_cast<std::size_t>(q)];
    chain.reserve(static_cast<std::size_t>(*len));
    for (std::uint64_t k = 0; k < *len; ++k) {
      Node node;
      const auto d = FdValue::decode(r, *n);
      if (!d) return std::nullopt;
      node.d = *d;
      node.vc.resize(static_cast<std::size_t>(*n));
      for (Pid c = 0; c < *n; ++c) {
        const auto v = r.uvarint();
        if (!v) return std::nullopt;
        node.vc[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(*v);
      }
      chain.push_back(std::move(node));
    }
  }
  if (!r.done()) return std::nullopt;
  return dag;
}

std::vector<NodeRef> SampleDag::cone_topo(NodeRef u) const {
  std::vector<NodeRef> out;
  if (!contains(u)) return out;
  for (Pid q = 0; q < n_; ++q) {
    for (std::uint32_t k = 1; k <= count_of(q); ++k) {
      const NodeRef v{q, k};
      if (in_cone(u, v)) out.push_back(v);
    }
  }
  const auto vc_sum = [this](NodeRef v) {
    const Node& nd = node(v);
    return std::accumulate(nd.vc.begin(), nd.vc.end(), std::uint64_t{0});
  };
  std::stable_sort(out.begin(), out.end(), [&](NodeRef a, NodeRef b) {
    const auto sa = vc_sum(a);
    const auto sb = vc_sum(b);
    if (sa != sb) return sa < sb;
    if (a.q != b.q) return a.q < b.q;
    return a.k < b.k;
  });
  // u has the minimal vc-sum within its own cone, but other nodes may tie;
  // rotate u to the front.
  const auto it = std::find(out.begin(), out.end(), u);
  assert(it != out.end());
  std::rotate(out.begin(), it, it + 1);
  return out;
}

std::vector<NodeRef> SampleDag::greedy_chain(NodeRef u) const {
  std::vector<NodeRef> chain;
  for (NodeRef v : cone_topo(u)) {
    if (chain.empty() || has_edge(chain.back(), v)) chain.push_back(v);
  }
  return chain;
}

std::vector<NodeRef> SampleDag::fair_chain(NodeRef u, int batch) const {
  std::vector<NodeRef> chain;
  if (!contains(u)) return chain;
  assert(batch >= 1);
  chain.push_back(u);

  // used[q] = largest index of q's samples consumed (or permanently
  // skipped: a sample that does not see the current chain tip will not see
  // any later tip either, since tips only move forward).
  std::vector<std::uint32_t> used(static_cast<std::size_t>(n_), 0);
  used[static_cast<std::size_t>(u.q)] = u.k;
  NodeRef last = u;

  const auto extend_own_batch = [&] {
    // (q, k) -> (q, k+1) is always an edge; take up to batch-1 successors.
    for (int i = 1; i < batch && last.k + 1 <= count_of(last.q); ++i) {
      last = NodeRef{last.q, last.k + 1};
      used[static_cast<std::size_t>(last.q)] = last.k;
      chain.push_back(last);
    }
  };
  extend_own_batch();

  while (true) {
    bool extended = false;
    for (Pid offset = 0; offset < n_; ++offset) {
      const Pid q = static_cast<Pid>((last.q + 1 + offset) % n_);
      std::uint32_t k = used[static_cast<std::size_t>(q)] + 1;
      // Advance to q's first sample whose creation view includes `last`
      // (vc[last.q] is nondecreasing in k, so this scan never backtracks).
      while (k <= count_of(q) &&
             node({q, k}).vc[static_cast<std::size_t>(last.q)] < last.k) {
        ++k;
      }
      if (k > count_of(q)) continue;
      used[static_cast<std::size_t>(q)] = k;
      last = NodeRef{q, k};
      chain.push_back(last);
      extend_own_batch();
      extended = true;
      break;
    }
    if (!extended) return chain;
  }
}

}  // namespace nucon
