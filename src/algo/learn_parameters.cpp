#include "algo/learn_parameters.hpp"

#include <stdexcept>

namespace fc::algo {

LearnedParameters learn_parameters(congest::Network& net, NodeId root,
                                   const congest::RunOptions& opts) {
  const Graph& g = net.graph();
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::invalid_argument(
        "learn_parameters: fault plans are not supported (the BFS and the "
        "two aggregates are separate engine runs with no single fault "
        "clock)");
  LearnedParameters out;
  auto bfs = run_bfs(net, root, opts);
  out.rounds += bfs.cost.rounds;
  out.cancelled = bfs.cost.cancelled;
  if (out.cancelled) return out;

  std::vector<std::uint64_t> degrees(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) degrees[v] = g.degree(v);
  const auto mind = aggregate_over_tree(net, bfs.tree, AggregateOp::kMin,
                                        std::move(degrees), opts);
  out.rounds += mind.rounds;
  out.cancelled = mind.cancelled;
  if (out.cancelled) return out;
  out.min_degree = static_cast<std::uint32_t>(mind.value);

  std::vector<std::uint64_t> ones(g.node_count(), 1);
  const auto cnt = aggregate_over_tree(net, bfs.tree, AggregateOp::kSum,
                                       std::move(ones), opts);
  out.rounds += cnt.rounds;
  out.cancelled = cnt.cancelled;
  if (!out.cancelled) out.node_count = cnt.value;
  return out;
}

LearnedParameters learn_parameters(const Graph& g, NodeId root,
                                   const congest::RunOptions& opts) {
  congest::Network net(g);
  return learn_parameters(net, root, opts);
}

}  // namespace fc::algo
