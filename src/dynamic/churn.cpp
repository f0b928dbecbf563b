#include "dynamic/churn.hpp"

#include <algorithm>
#include <cmath>

namespace fc::dynamic {

namespace {

// Substream selectors, fixed forever: changing either silently re-keys
// every dynamic scenario's schedule / weights.
constexpr std::uint64_t kChurnStream = 0xc482a1b3d5e6f709ULL;
constexpr std::uint64_t kWeightStream = 0x3b9d2c4f8e7a6051ULL;

std::uint64_t edge_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

Weight dynamic_weight(NodeId u, NodeId v, const scenario::WeightRange& range,
                      std::uint64_t seed) {
  if (range.lo >= range.hi) return range.lo;
  const std::uint64_t span =
      static_cast<std::uint64_t>(range.hi - range.lo) + 1;
  return range.lo + static_cast<Weight>(
                        mix64(kWeightStream, seed, edge_key(u, v)) % span);
}

ChurnSchedule::ChurnSchedule(const Graph& base, scenario::ChurnSpec churn,
                             std::uint64_t seed)
    : n_(base.node_count()), churn_(churn), seed_(seed) {
  edges_.reserve(base.edge_count());
  keys_.reserve(base.edge_count());
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    edges_.emplace_back(base.edge_u(e), base.edge_v(e));
    keys_.insert(edge_key(base.edge_u(e), base.edge_v(e)));
  }
}

UpdateBatch ChurnSchedule::advance() {
  using Op = scenario::ChurnSpec::Op;
  UpdateBatch out;
  ++batch_;
  Rng rng(mix64(seed_, kChurnStream, batch_));
  const std::uint64_t m = edges_.size();
  // Both sides of a batch target the PRE-batch edge count, so a kMix batch
  // keeps m roughly stationary.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(churn_.p * double(m))));

  if (churn_.op != Op::kInsert && m > 0) {
    const std::uint64_t want = std::min(target, m);
    std::vector<std::uint64_t> pos;
    pos.reserve(want);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(want * 2);
    while (pos.size() < want) {
      const std::uint64_t x = rng.below(m);
      if (seen.insert(x).second) pos.push_back(x);
    }
    std::sort(pos.begin(), pos.end());
    out.deleted.reserve(want);
    out.deleted_ids.reserve(want);
    for (const std::uint64_t p : pos) {
      out.deleted.push_back(edges_[p]);
      out.deleted_ids.push_back(static_cast<EdgeId>(p));
      keys_.erase(edge_key(edges_[p].first, edges_[p].second));
    }
    // Order-preserving compaction: surviving edges keep their relative
    // order (and thus a deterministic rebuilt layout).
    std::size_t w = 0, next = 0;
    for (std::size_t r = 0; r < edges_.size(); ++r) {
      if (next < pos.size() && pos[next] == r) {
        ++next;
        continue;
      }
      edges_[w++] = edges_[r];
    }
    edges_.resize(w);
  }

  if (churn_.op != Op::kDelete && n_ >= 2) {
    const std::uint64_t complete =
        static_cast<std::uint64_t>(n_) * (n_ - 1) / 2;
    const std::uint64_t room =
        complete > keys_.size() ? complete - keys_.size() : 0;
    const std::uint64_t want = std::min(target, room);
    // Bounded rejection sampling: on a near-complete graph the batch
    // deterministically inserts fewer than `want` instead of spinning.
    std::uint64_t attempts = 64 * want + 256;
    std::uint64_t got = 0;
    while (got < want && attempts-- > 0) {
      NodeId u = static_cast<NodeId>(rng.below(n_));
      NodeId v = static_cast<NodeId>(rng.below(n_));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!keys_.insert(edge_key(u, v)).second) continue;
      edges_.emplace_back(u, v);
      out.inserted.emplace_back(u, v);
      ++got;
    }
  }
  return out;
}

Graph ChurnSchedule::build_graph() const {
  return Graph::from_edges(n_, edges_);
}

WeightedGraph ChurnSchedule::build_weighted(
    const scenario::WeightRange& range) const {
  std::vector<Weight> weights;
  weights.reserve(edges_.size());
  for (const auto& [u, v] : edges_)
    weights.push_back(dynamic_weight(u, v, range, seed_));
  return WeightedGraph(Graph::from_edges(n_, edges_), std::move(weights));
}

}  // namespace fc::dynamic
