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

/// Phase 1: leader election (optional), BFS on G, Lemma 3 numbering.
/// Returns the root and the renumbered messages (ids remapped to [0, k));
/// charges the rounds and messages to `report.setup_rounds` /
/// `report.messages`, and stops at the first cancelled run
/// (`report.cancelled`, nothing numbered). Rejects a fault plan first:
/// every entry point starts here.
struct SetupResult {
  NodeId root = 0;
  std::vector<algo::PlacedMessage> numbered;
};

SetupResult setup_phase(const Graph& g,
                        std::span<const algo::PlacedMessage> messages,
                        const FastBroadcastOptions& opts,
                        FastBroadcastReport& report) {
  if (opts.faults != nullptr && !opts.faults->empty())
    throw std::invalid_argument(
        "fast_broadcast: fault plans are not supported (the phases are "
        "separate engine runs with no single fault clock)");
  SetupResult out;
  const auto add = [&report](const congest::RunResult& res) {
    report.setup_rounds += res.rounds;
    report.messages += res.messages;
    report.cancelled = res.cancelled;
    return !res.cancelled;
  };

  if (opts.elect_leader) {
    congest::Network net(g);
    algo::LeaderElection le(g);
    if (!add(net.run(le, opts))) return out;
    out.root = le.leader();
  }

  auto bfs = algo::run_bfs(g, out.root, opts);
  if (!add(bfs.cost)) return out;
  if (bfs.tree.covered != g.node_count())
    throw std::invalid_argument("fast_broadcast: graph is disconnected");

  // Lemma 3: number the items so that part assignment is a local decision.
  std::vector<std::uint64_t> counts(g.node_count(), 0);
  for (const auto& m : messages) ++counts[m.origin];
  congest::Network net(g);
  algo::IdAssignment ids(g, bfs.tree, counts);
  if (!add(net.run(ids, opts))) return out;

  // Renumber each node's messages consecutively from its assigned range.
  std::vector<std::uint64_t> next(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) next[v] = ids.first_id(v);
  out.numbered.reserve(messages.size());
  for (const auto& m : messages)
    out.numbered.push_back({m.origin, next[m.origin]++, m.payload});
  return out;
}

/// Phases 3+4 for a fixed part count: concurrent per-part BFS, then
/// concurrent per-part pipelined broadcast. Fills the report's phase
/// fields; returns false when some part failed to span (a cancelled run
/// returns true with report.cancelled set — there is nothing to retry).
bool broadcast_over_parts(const Graph& g, NodeId root, std::uint32_t parts,
                          std::uint64_t seed,
                          const std::vector<algo::PlacedMessage>& numbered,
                          const FastBroadcastOptions& opts,
                          FastBroadcastReport& report) {
  const std::uint64_t k = numbered.size();
  EdgePartition partition = random_edge_partition(g, parts, seed);

  // Concurrent BFS per part.
  std::vector<std::unique_ptr<algo::DistributedBfs>> bfs_algs;
  std::vector<congest::EdgeDisjointInstance> bfs_work;
  for (auto& part : partition.parts) {
    bfs_algs.push_back(std::make_unique<algo::DistributedBfs>(part.graph, root));
    bfs_work.push_back({&part, bfs_algs.back().get()});
  }
  const auto bfs_res = congest::run_edge_disjoint(g, bfs_work, opts);
  report.part_bfs_rounds = bfs_res.rounds;
  report.messages += bfs_res.messages;
  report.cancelled = bfs_res.cancelled;
  if (report.cancelled) return true;

  std::vector<algo::SpanningTree> trees;
  trees.reserve(parts);
  for (std::uint32_t i = 0; i < parts; ++i) {
    trees.push_back(algo::extract_tree(partition.parts[i].graph, *bfs_algs[i]));
    if (trees.back().covered != g.node_count()) return false;
  }

  // Assign messages: part i owns ids [i*K, (i+1)*K).
  const std::uint64_t K = (k + parts - 1) / parts;
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
    bc_algs.push_back(std::make_unique<algo::PipelineBroadcast>(
        partition.parts[i].graph, trees[i], assigned[i]));
    bc_work.push_back({&partition.parts[i], bc_algs.back().get()});
  }
  const auto bc_res = congest::run_edge_disjoint(g, bc_work, opts);
  report.broadcast_rounds = bc_res.rounds;
  report.messages += bc_res.messages;
  report.cancelled = bc_res.cancelled;
  report.max_edge_congestion = std::max(bfs_res.max_parent_edge_congestion(),
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
  return true;
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

  const SetupResult setup = setup_phase(g, messages, opts, report);
  if (report.cancelled) return finish(report);

  const std::uint32_t parts = theorem2_part_count(lambda, g.node_count(), opts.C);
  report.parts = parts;

  std::uint64_t seed = opts.seed;
  for (std::uint32_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
    FastBroadcastReport trial = report;
    if (broadcast_over_parts(g, setup.root, parts, seed, setup.numbered, opts,
                             trial)) {
      trial.retries = attempt;
      return finish(trial);
    }
    // A part failed to span (probability n^{-Ω(C)}): recolour and retry.
    // The retry costs another concurrent-BFS sweep, which we account.
    report.search_rounds += trial.part_bfs_rounds;
    report.messages = trial.messages;
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

  const SetupResult setup = setup_phase(g, messages, opts, report);
  if (report.cancelled) return finish(report);

  // Lemma 4 (δ only): one convergecast over the parent BFS tree.
  const auto learned = algo::learn_parameters(g, setup.root, opts);
  report.setup_rounds += learned.rounds;
  report.cancelled = learned.cancelled;
  if (report.cancelled) return finish(report);
  const std::uint32_t delta = learned.min_degree;

  // Exponential search: λ̃ = δ, δ/2, ... Validate with the O((n log n)/δ)
  // per-part BFS sweep; accept when all parts span within the budget.
  const double budget =
      opts.validity_slack *
      Decomposition::diameter_budget(g.node_count(), delta, opts.C);
  std::uint32_t lambda_tilde = std::max<std::uint32_t>(delta, 1);
  for (std::uint32_t iter = 0;; ++iter) {
    DecompositionOptions dopts{opts};
    dopts.C = opts.C;
    dopts.seed = mix64(opts.seed, iter, 0x6f626c7376ULL);
    dopts.root = setup.root;
    const Decomposition dec = decompose(g, lambda_tilde, dopts);
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
      if (!broadcast_over_parts(g, setup.root, dec.parts, dopts.seed,
                                setup.numbered, opts, report))
        throw std::runtime_error(
            "fast_broadcast_oblivious: validated decomposition failed on "
            "re-run");
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

  const SetupResult setup = setup_phase(g, messages, opts, report);
  if (report.cancelled) return finish(report);

  auto bfs = algo::run_bfs(g, setup.root, opts);
  report.part_bfs_rounds = bfs.cost.rounds;
  report.messages += bfs.cost.messages;
  report.cancelled = bfs.cost.cancelled;
  if (report.cancelled) return finish(report);

  congest::Network net(g);
  algo::PipelineBroadcast alg(g, bfs.tree, setup.numbered);
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
