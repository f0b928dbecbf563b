#include "core/fast_broadcast.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "algo/id_assignment.hpp"
#include "algo/leader_election.hpp"
#include "algo/learn_parameters.hpp"
#include "congest/runner.hpp"
#include "graph/properties.hpp"

namespace fc::core {

std::string FastBroadcastReport::str() const {
  std::ostringstream os;
  os << "FastBroadcast(k=" << k << ", parts=" << parts
     << ", lambda_used=" << lambda_used << ", rounds=" << total_rounds
     << " [setup=" << setup_rounds << " part_bfs=" << part_bfs_rounds
     << " bcast=" << broadcast_rounds << " search=" << search_rounds
     << "], msgs=" << messages << ", max_cong=" << max_edge_congestion
     << ", complete=" << (complete ? "yes" : "NO") << ")";
  return os.str();
}

double theorem1_prediction(NodeId n, std::uint32_t delta, std::uint32_t lambda,
                           std::uint64_t k) {
  if (n < 2 || delta == 0 || lambda == 0) return 0;
  const double ln_n = std::log(static_cast<double>(n));
  return static_cast<double>(n) * ln_n / delta +
         static_cast<double>(k) * ln_n / lambda;
}

double theorem3_lower_bound(std::uint64_t k, std::uint32_t lambda) {
  if (lambda == 0) return 0;
  return static_cast<double>(k) / static_cast<double>(lambda);
}

namespace {

/// Close a report: total rounds are the phase sums.
FastBroadcastReport finish(FastBroadcastReport r) {
  r.total_rounds = r.setup_rounds + r.search_rounds + r.part_bfs_rounds +
                   r.broadcast_rounds;
  return r;
}

/// Phase 1 on the parent graph's engine: leader election (optional), BFS
/// on G, Lemma 3 numbering. Returns the root, the BFS tree with its cost
/// and the renumbered messages (ids remapped to [0, k)); charges the
/// rounds and messages to `report.setup_rounds` / `report.messages`, and
/// stops at the first cancelled run (`report.cancelled`, nothing
/// numbered). Rejects a fault plan and a message origin outside the graph
/// first: every entry point starts here.
struct SetupResult {
  NodeId root = 0;
  algo::SpanningTree tree;
  std::uint64_t bfs_rounds = 0;
  std::uint64_t bfs_messages = 0;
  std::vector<algo::PlacedMessage> numbered;
};

SetupResult setup_phase(congest::Network& net,
                        std::span<const algo::PlacedMessage> messages,
                        const FastBroadcastOptions& opts,
                        FastBroadcastReport& report) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::invalid_argument(
        "fast_broadcast: fault plans are not supported (the phases are "
        "separate engine runs with no single fault clock)");
  const Graph& g = net.graph();
  for (const auto& m : messages)
    if (m.origin >= g.node_count())
      throw std::invalid_argument(
          "fast_broadcast: a message origin is not a node of the graph");
  SetupResult out;
  const auto add = [&report](const congest::RunResult& res) {
    report.setup_rounds += res.rounds;
    report.messages += res.messages;
    report.cancelled = res.cancelled;
    return !res.cancelled;
  };

  if (opts.elect_leader) {
    algo::LeaderElection le(g);
    if (!add(net.run(le, opts))) return out;
    out.root = le.leader();
  }

  auto bfs = algo::run_bfs(net, out.root, opts);
  if (!add(bfs.cost)) return out;
  if (bfs.tree.covered != g.node_count())
    throw std::invalid_argument("fast_broadcast: graph is disconnected");
  out.tree = std::move(bfs.tree);
  out.bfs_rounds = bfs.cost.rounds;
  out.bfs_messages = bfs.cost.messages;

  // Lemma 3: number the items so that part assignment is a local decision.
  std::vector<std::uint64_t> counts(g.node_count(), 0);
  for (const auto& m : messages) ++counts[m.origin];
  algo::IdAssignment ids(g, out.tree, counts);
  if (!add(net.run(ids, opts))) return out;

  // Renumber each node's messages consecutively from its assigned range.
  std::vector<std::uint64_t> next(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) next[v] = ids.first_id(v);
  out.numbered.reserve(messages.size());
  for (const auto& m : messages)
    out.numbered.push_back({m.origin, next[m.origin]++, m.payload});
  return out;
}

/// Phases 3+4 on a decomposition whose part BFS has run: charges that BFS
/// as the part-BFS phase, then broadcasts concurrently in every part
/// (Lemma 1) on the decomposition's engine, from that BFS's trees. Fills
/// the report's phase fields; a cancelled part BFS stops after its charge.
void broadcast_over_parts(const Graph& g, const Decomposition& dec,
                          const std::vector<algo::PlacedMessage>& numbered,
                          const FastBroadcastOptions& opts,
                          FastBroadcastReport& report) {
  report.part_bfs_rounds = dec.bfs.rounds;
  report.messages += dec.bfs.messages;
  report.cancelled = dec.cancelled;
  if (report.cancelled) return;

  // Assign messages: part i owns ids [i*K, (i+1)*K).
  const std::uint32_t parts = dec.parts;
  const std::uint64_t K = (numbered.size() + parts - 1) / parts;
  std::vector<std::vector<algo::PlacedMessage>> assigned(parts);
  for (const auto& m : numbered) {
    const auto part = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(m.id / std::max<std::uint64_t>(K, 1), parts - 1));
    assigned[part].push_back(m);
  }

  // Concurrent pipelined broadcast per part (Lemma 1).
  std::vector<std::unique_ptr<algo::PipelineBroadcast>> bc_algs;
  std::vector<congest::EdgeDisjointInstance> bc_work;
  for (std::uint32_t i = 0; i < parts; ++i) {
    const Subgraph& part = dec.partition.parts[i];
    bc_algs.push_back(std::make_unique<algo::PipelineBroadcast>(
        part.graph, dec.trees[i], assigned[i]));
    bc_work.push_back({&part, bc_algs.back().get()});
  }
  const auto bc_res = dec.engine->run(g, bc_work, opts);
  report.broadcast_rounds = bc_res.rounds;
  report.messages += bc_res.messages;
  report.cancelled = bc_res.cancelled;
  report.max_edge_congestion = std::max(dec.bfs.max_parent_edge_congestion(),
                                        bc_res.max_parent_edge_congestion());

  // Verify completeness: every node must hold all k messages, i.e. for each
  // part, every node's digest equals the part's expected digest.
  report.complete = bc_res.finished;
  for (std::uint32_t i = 0; i < parts && report.complete; ++i) {
    const auto& alg = *bc_algs[i];
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (alg.received_count(v) != alg.k() ||
          alg.digest(v) != alg.expected_digest()) {
        report.complete = false;
        break;
      }
    }
  }
}

/// The decomposition options of a broadcast: its engine knobs and C.
DecompositionOptions decomposition_options(const FastBroadcastOptions& opts,
                                           std::uint64_t seed, NodeId root) {
  DecompositionOptions dopts{opts};
  dopts.C = opts.C;
  dopts.seed = seed;
  dopts.root = root;
  return dopts;
}

}  // namespace

FastBroadcastReport run_fast_broadcast(
    const Graph& g, std::uint32_t lambda,
    std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts) {
  if (lambda == 0) throw std::invalid_argument("fast_broadcast: lambda == 0");
  FastBroadcastReport report;
  report.k = messages.size();
  report.lambda_used = lambda;

  SetupResult setup;
  {
    // The parent graph's engine is gone before the union engine exists.
    congest::Network net(g);
    setup = setup_phase(net, messages, opts, report);
  }
  if (report.cancelled) return finish(report);

  std::uint64_t seed = opts.seed;
  for (std::uint32_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
    const Decomposition dec =
        decompose(g, lambda, decomposition_options(opts, seed, setup.root));
    report.parts = dec.parts;
    if (dec.cancelled || dec.all_spanning()) {
      report.retries = attempt;
      broadcast_over_parts(g, dec, setup.numbered, opts, report);
      return finish(report);
    }
    // A part failed to span (probability n^{-Ω(C)}): recolour and retry.
    // The retry costs another concurrent-BFS sweep, which we account.
    report.search_rounds += dec.bfs.rounds;
    report.messages += dec.bfs.messages;
    seed = mix64(seed, 0x66617374636173ULL);
  }
  throw std::runtime_error(
      "fast_broadcast: decomposition repeatedly failed to span; lambda is "
      "likely overestimated for this graph");
}

FastBroadcastReport run_fast_broadcast_oblivious(
    const Graph& g, std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts) {
  FastBroadcastReport report;
  report.k = messages.size();

  SetupResult setup;
  std::uint32_t delta = 0;
  {
    // The parent graph's engine is gone before the first probe's engine
    // exists.
    congest::Network net(g);
    setup = setup_phase(net, messages, opts, report);
    if (report.cancelled) return finish(report);

    // Lemma 4 (δ only): one convergecast over a parent BFS tree.
    const auto learned = algo::learn_parameters(net, setup.root, opts);
    report.setup_rounds += learned.rounds;
    report.cancelled = learned.cancelled;
    if (report.cancelled) return finish(report);
    delta = learned.min_degree;
  }

  // Exponential search: λ̃ = δ, δ/2, ... Validate with the O((n log n)/δ)
  // per-part BFS sweep; accept when all parts span within the budget, and
  // broadcast on the validated probe's parts, engine and trees.
  const double budget =
      opts.validity_slack *
      Decomposition::diameter_budget(g.node_count(), delta, opts.C);
  std::uint32_t lambda_tilde = std::max<std::uint32_t>(delta, 1);
  for (std::uint32_t iter = 0;; ++iter) {
    const Decomposition dec = decompose(
        g, lambda_tilde,
        decomposition_options(opts, mix64(opts.seed, iter, 0x6f626c7376ULL),
                              setup.root));
    report.search_rounds += dec.check_rounds;
    report.messages += dec.messages;
    ++report.search_iterations;
    report.cancelled = dec.cancelled;
    if (report.cancelled) return finish(report);

    const bool valid =
        dec.all_spanning() &&
        (dec.parts == 1 || dec.max_tree_depth() <= budget);
    if (valid) {
      report.lambda_used = lambda_tilde;
      report.parts = dec.parts;
      broadcast_over_parts(g, dec, setup.numbered, opts, report);
      return finish(report);
    }
    if (lambda_tilde == 1)
      throw std::runtime_error(
          "fast_broadcast_oblivious: even a single part failed (graph "
          "disconnected?)");
    lambda_tilde = std::max<std::uint32_t>(1, lambda_tilde / 2);
  }
}

FastBroadcastReport run_textbook_broadcast(
    const Graph& g, std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts) {
  FastBroadcastReport report;
  report.k = messages.size();
  report.parts = 1;
  report.lambda_used = 1;

  congest::Network net(g);
  const SetupResult setup = setup_phase(net, messages, opts, report);
  if (report.cancelled) return finish(report);

  // Lemma 1 on the setup BFS tree, whose BFS is charged as this
  // broadcast's one part BFS.
  report.part_bfs_rounds = setup.bfs_rounds;
  report.messages += setup.bfs_messages;
  algo::PipelineBroadcast alg(g, setup.tree, setup.numbered);
  const auto res = net.run(alg, opts);
  report.broadcast_rounds = res.rounds;
  report.messages += res.messages;
  report.max_edge_congestion = res.max_edge_congestion(g);
  report.cancelled = res.cancelled;
  report.complete = res.finished;
  for (NodeId v = 0; v < g.node_count() && report.complete; ++v)
    if (alg.received_count(v) != alg.k() ||
        alg.digest(v) != alg.expected_digest())
      report.complete = false;
  return finish(report);
}

}  // namespace fc::core
