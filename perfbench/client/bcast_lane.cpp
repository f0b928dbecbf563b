#include "bcast_lane.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>

#include "algo/bfs.hpp"
#include "algo/id_assignment.hpp"
#include "algo/leader_election.hpp"
#include "algo/learn_parameters.hpp"
#include "congest/runner.hpp"
#include "core/decomposition.hpp"
#include "graph/partition.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace perfbench {

using fc::core::FastBroadcastOptions;
using fc::core::FastBroadcastReport;
namespace algo = fc::algo;
namespace congest = fc::congest;

namespace {

// ------------------------------------------------------------------ replay
// The phases of core/fast_broadcast.cpp, call for call, each call in a span.
// The replay is the reference the traced run checks the library against:
// its rounds and messages must equal the library's report exactly.

congest::RunOptions run_options(const FastBroadcastOptions& opts) {
  congest::RunOptions ropts;
  ropts.max_rounds = opts.max_rounds;
  ropts.force_dense = opts.force_dense;
  return ropts;
}

struct Setup {
  fc::NodeId root = 0;
  std::vector<algo::PlacedMessage> numbered;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

Setup replay_setup(Tracer& t, const fc::Graph& g,
                   std::span<const algo::PlacedMessage> messages,
                   const FastBroadcastOptions& opts) {
  Setup out;
  const congest::RunOptions ropts = run_options(opts);
  if (opts.elect_leader) {
    auto s = t.span("algo.leader");
    congest::Network net(g);
    algo::LeaderElection le(g);
    const auto res = net.run(le, ropts);
    out.rounds += res.rounds;
    out.messages += res.messages;
    out.root = le.leader();
    s.arg("rounds", static_cast<double>(res.rounds));
  }
  algo::BfsOutcome bfs;
  {
    auto s = t.span("algo.bfs");
    bfs = algo::run_bfs(g, out.root, ropts);
    s.arg("rounds", static_cast<double>(bfs.cost.rounds));
  }
  out.rounds += bfs.cost.rounds;
  out.messages += bfs.cost.messages;
  if (bfs.tree.covered != g.node_count())
    throw std::invalid_argument("replay: graph is disconnected");

  auto s = t.span("algo.numbering");
  std::vector<std::uint64_t> counts(g.node_count(), 0);
  for (const auto& m : messages) ++counts[m.origin];
  congest::Network net(g);
  algo::IdAssignment ids(g, bfs.tree, counts);
  const auto res = net.run(ids, ropts);
  out.rounds += res.rounds;
  out.messages += res.messages;
  std::vector<std::uint64_t> next(g.node_count());
  for (fc::NodeId v = 0; v < g.node_count(); ++v) next[v] = ids.first_id(v);
  out.numbered.reserve(messages.size());
  for (const auto& m : messages)
    out.numbered.push_back({m.origin, next[m.origin]++, m.payload});
  s.arg("rounds", static_cast<double>(res.rounds));
  return out;
}

bool replay_parts(Tracer& t, const fc::Graph& g, fc::NodeId root,
                  std::uint32_t parts, std::uint64_t seed,
                  const std::vector<algo::PlacedMessage>& numbered,
                  const FastBroadcastOptions& opts, FastBroadcastReport& rep) {
  const std::uint64_t k = numbered.size();
  const congest::RunOptions ropts = run_options(opts);
  fc::EdgePartition partition;
  {
    auto s = t.span("graph.partition");
    partition = fc::random_edge_partition(g, parts, seed);
    s.arg("parts", parts);
  }

  std::vector<std::unique_ptr<algo::DistributedBfs>> bfs_algs;
  std::vector<congest::EdgeDisjointInstance> bfs_work;
  {
    auto s = t.span("algo.part_bfs_init");
    for (auto& part : partition.parts) {
      bfs_algs.push_back(
          std::make_unique<algo::DistributedBfs>(part.graph, root));
      bfs_work.push_back({&part, bfs_algs.back().get()});
    }
  }
  congest::CompositeResult bfs_res;
  {
    auto s = t.span("congest.part_bfs");
    bfs_res = congest::run_edge_disjoint(g, bfs_work, ropts);
    s.arg("rounds", static_cast<double>(bfs_res.rounds));
    s.arg("messages", static_cast<double>(bfs_res.messages));
  }
  rep.part_bfs_rounds = bfs_res.rounds;
  rep.messages += bfs_res.messages;

  std::vector<algo::SpanningTree> trees;
  {
    auto s = t.span("algo.extract_trees");
    trees.reserve(parts);
    for (std::uint32_t i = 0; i < parts; ++i) {
      trees.push_back(algo::extract_tree(partition.parts[i].graph, *bfs_algs[i]));
      if (trees.back().covered != g.node_count()) return false;
    }
  }

  std::vector<std::unique_ptr<algo::PipelineBroadcast>> bc_algs;
  std::vector<congest::EdgeDisjointInstance> bc_work;
  {
    auto s = t.span("algo.pipeline_init");
    const std::uint64_t K = (k + parts - 1) / parts;
    std::vector<std::vector<algo::PlacedMessage>> assigned(parts);
    for (const auto& m : numbered) {
      const auto part = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          m.id / std::max<std::uint64_t>(K, 1), parts - 1));
      assigned[part].push_back(m);
    }
    for (std::uint32_t i = 0; i < parts; ++i) {
      bc_algs.push_back(std::make_unique<algo::PipelineBroadcast>(
          partition.parts[i].graph, trees[i], assigned[i]));
      bc_work.push_back({&partition.parts[i], bc_algs.back().get()});
    }
  }
  congest::CompositeResult bc_res;
  {
    auto s = t.span("congest.part_bcast");
    bc_res = congest::run_edge_disjoint(g, bc_work, ropts);
    s.arg("rounds", static_cast<double>(bc_res.rounds));
    s.arg("messages", static_cast<double>(bc_res.messages));
  }
  rep.broadcast_rounds = bc_res.rounds;
  rep.messages += bc_res.messages;
  rep.max_edge_congestion = std::max(bfs_res.max_parent_edge_congestion(),
                                     bc_res.max_parent_edge_congestion());

  auto s = t.span("core.verify");
  rep.complete = bc_res.finished;
  for (std::uint32_t i = 0; i < parts && rep.complete; ++i) {
    const auto& alg = *bc_algs[i];
    for (fc::NodeId v = 0; v < g.node_count(); ++v) {
      if (alg.received_count(v) != alg.k() ||
          alg.digest(v) != alg.expected_digest()) {
        rep.complete = false;
        break;
      }
    }
  }
  return true;
}

FastBroadcastReport replay_fast(Tracer& t, const fc::Graph& g,
                                std::uint32_t lambda,
                                std::span<const algo::PlacedMessage> messages,
                                const FastBroadcastOptions& opts) {
  auto span = t.span("core.fast");
  FastBroadcastReport rep;
  rep.k = messages.size();
  rep.lambda_used = lambda;
  const Setup setup = replay_setup(t, g, messages, opts);
  rep.setup_rounds = setup.rounds;
  rep.messages = setup.messages;
  const std::uint32_t parts =
      fc::theorem2_part_count(lambda, g.node_count(), opts.C);
  rep.parts = parts;
  std::uint64_t seed = opts.seed;
  for (std::uint32_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
    FastBroadcastReport trial = rep;
    if (replay_parts(t, g, setup.root, parts, seed, setup.numbered, opts,
                     trial)) {
      trial.retries = attempt;
      trial.total_rounds = trial.setup_rounds + trial.part_bfs_rounds +
                           trial.broadcast_rounds + trial.search_rounds;
      span.arg("retries", attempt);
      return trial;
    }
    rep.search_rounds += trial.part_bfs_rounds;
    rep.messages = trial.messages;
    seed = fc::mix64(seed, 0x66617374636173ULL);
  }
  throw std::runtime_error("replay: decomposition repeatedly failed to span");
}

FastBroadcastReport replay_oblivious(
    Tracer& t, const fc::Graph& g,
    std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts) {
  auto span = t.span("core.oblivious");
  FastBroadcastReport rep;
  rep.k = messages.size();
  const Setup setup = replay_setup(t, g, messages, opts);
  rep.setup_rounds = setup.rounds;
  rep.messages = setup.messages;

  algo::LearnedParameters learned;
  {
    auto s = t.span("algo.learn");
    learned = algo::learn_parameters(g, setup.root);
    s.arg("rounds", static_cast<double>(learned.rounds));
  }
  rep.setup_rounds += learned.rounds;
  const std::uint32_t delta = learned.min_degree;

  const double budget =
      opts.validity_slack *
      fc::core::Decomposition::diameter_budget(g.node_count(), delta, opts.C);
  std::uint32_t lambda_tilde = std::max<std::uint32_t>(delta, 1);
  for (std::uint32_t iter = 0;; ++iter) {
    fc::core::DecompositionOptions dopts;
    dopts.C = opts.C;
    dopts.seed = fc::mix64(opts.seed, iter, 0x6f626c7376ULL);
    dopts.root = setup.root;
    dopts.max_rounds = opts.max_rounds;
    fc::core::Decomposition dec;
    {
      auto s = t.span("core.search");
      dec = fc::core::decompose(g, lambda_tilde, dopts);
      s.arg("probes", 1);
      s.arg("rounds", static_cast<double>(dec.check_rounds));
    }
    rep.search_rounds += dec.check_rounds;
    rep.messages += dec.messages;
    ++rep.search_iterations;
    const bool valid = dec.all_spanning() &&
                       (dec.parts == 1 || dec.max_tree_depth() <= budget);
    if (valid) {
      rep.lambda_used = lambda_tilde;
      rep.parts = dec.parts;
      if (!replay_parts(t, g, setup.root, dec.parts, dopts.seed,
                        setup.numbered, opts, rep))
        throw std::runtime_error("replay: validated decomposition failed");
      rep.total_rounds = rep.setup_rounds + rep.search_rounds +
                         rep.part_bfs_rounds + rep.broadcast_rounds;
      return rep;
    }
    if (lambda_tilde == 1)
      throw std::runtime_error("replay: even a single part failed");
    lambda_tilde = std::max<std::uint32_t>(1, lambda_tilde / 2);
  }
}

FastBroadcastReport replay_textbook(
    Tracer& t, const fc::Graph& g,
    std::span<const algo::PlacedMessage> messages,
    const FastBroadcastOptions& opts) {
  auto span = t.span("core.textbook");
  FastBroadcastReport rep;
  rep.k = messages.size();
  rep.parts = 1;
  rep.lambda_used = 1;
  const Setup setup = replay_setup(t, g, messages, opts);
  rep.setup_rounds = setup.rounds;
  rep.messages = setup.messages;

  const congest::RunOptions ropts = run_options(opts);
  algo::BfsOutcome bfs;
  {
    auto s = t.span("algo.bfs");
    bfs = algo::run_bfs(g, setup.root, ropts);
    s.arg("rounds", static_cast<double>(bfs.cost.rounds));
  }
  rep.part_bfs_rounds = bfs.cost.rounds;
  rep.messages += bfs.cost.messages;

  std::optional<algo::PipelineBroadcast> alg;
  {
    auto s = t.span("congest.textbook_pipe");
    congest::Network net(g);
    alg.emplace(g, bfs.tree, setup.numbered);
    const auto res = net.run(*alg, ropts);
    rep.broadcast_rounds = res.rounds;
    rep.messages += res.messages;
    rep.max_edge_congestion = res.max_edge_congestion(g);
    rep.complete = res.finished;
    s.arg("rounds", static_cast<double>(res.rounds));
    s.arg("messages", static_cast<double>(res.messages));
  }
  {
    auto s = t.span("core.verify");
    for (fc::NodeId v = 0; v < g.node_count() && rep.complete; ++v)
      if (alg->received_count(v) != alg->k() ||
          alg->digest(v) != alg->expected_digest())
        rep.complete = false;
  }
  rep.total_rounds =
      rep.setup_rounds + rep.part_bfs_rounds + rep.broadcast_rounds;
  return rep;
}

/// Field-by-field differences between two reports ("" when equal).
std::vector<std::string> diff(const char* what, const FastBroadcastReport& a,
                              const FastBroadcastReport& b) {
  std::vector<std::string> out;
  const auto cmp = [&](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x != y)
      out.push_back(std::string(what) + " " + field + ": " +
                    std::to_string(x) + " vs " + std::to_string(y));
  };
  cmp("k", a.k, b.k);
  cmp("parts", a.parts, b.parts);
  cmp("lambda_used", a.lambda_used, b.lambda_used);
  cmp("setup_rounds", a.setup_rounds, b.setup_rounds);
  cmp("part_bfs_rounds", a.part_bfs_rounds, b.part_bfs_rounds);
  cmp("broadcast_rounds", a.broadcast_rounds, b.broadcast_rounds);
  cmp("search_rounds", a.search_rounds, b.search_rounds);
  cmp("total_rounds", a.total_rounds, b.total_rounds);
  cmp("messages", a.messages, b.messages);
  cmp("max_edge_congestion", a.max_edge_congestion, b.max_edge_congestion);
  cmp("complete", a.complete, b.complete);
  cmp("retries", a.retries, b.retries);
  cmp("search_iterations", a.search_iterations, b.search_iterations);
  return out;
}

// Per-op layer values of the traced run: metric, unit, span, count ("" =
// the span's time). Each value is the op's total over its three broadcasts.
struct LayerRule {
  const char* metric;
  const char* unit;
  const char* span;
  const char* count;
};
constexpr LayerRule kLayerRules[] = {
    {"algo.leader_ms", "ms", "algo.leader", ""},
    {"algo.bfs_ms", "ms", "algo.bfs", ""},
    {"algo.numbering_ms", "ms", "algo.numbering", ""},
    {"algo.learn_ms", "ms", "algo.learn", ""},
    {"core.search_ms", "ms", "core.search", ""},
    {"core.search_probes", "count", "core.search", "probes"},
    {"core.search_rounds", "rounds", "core.search", "rounds"},
    {"graph.partition_ms", "ms", "graph.partition", ""},
    {"graph.parts", "count", "graph.partition", "parts"},
    {"congest.part_bfs_ms", "ms", "congest.part_bfs", ""},
    {"congest.part_bfs_rounds", "rounds", "congest.part_bfs", "rounds"},
    {"congest.part_bcast_ms", "ms", "congest.part_bcast", ""},
    {"congest.part_bcast_rounds", "rounds", "congest.part_bcast", "rounds"},
    {"congest.part_bcast_msgs", "count", "congest.part_bcast", "messages"},
    {"congest.textbook_pipe_ms", "ms", "congest.textbook_pipe", ""},
    {"core.verify_ms", "ms", "core.verify", ""},
    {"core.retries", "count", "core.fast", "retries"},
};
constexpr std::size_t kLayerCount = std::size(kLayerRules);

}  // namespace

BcastLane::BcastLane(BcastInput input, std::uint64_t seed)
    : input_(std::move(input)), seed_(seed), layer_values_(kLayerCount) {}

double BcastLane::setup(std::uint64_t placement) {
  const Clock::time_point t0 = Clock::now();
  graph_.emplace(fc::scenario::build_graph(input_.spec));
  fc::Rng rng(fc::mix64(seed_, placement, 0x6263617374ULL));
  messages_.clear();
  messages_.reserve(input_.k);
  for (std::uint64_t i = 0; i < input_.k; ++i)
    messages_.push_back(
        {static_cast<fc::NodeId>(rng.below(graph_->node_count())), i, rng()});
  const double seconds = seconds_since(t0);
  first_fast_.reset();
  first_oblivious_.reset();
  first_textbook_.reset();
  return seconds;
}

std::vector<std::string> BcastLane::check(
    const char* what, const FastBroadcastReport& rep,
    std::optional<FastBroadcastReport>& first) const {
  std::vector<std::string> problems;
  if (!rep.complete)
    problems.push_back(std::string(what) + ": digest check failed");
  if (!first)
    first = rep;
  else
    for (std::string& p : diff(what, rep, *first))
      problems.push_back("differs from the placement's first op: " + p);
  return problems;
}

void BcastLane::run_op(Ledger& ledger, bool measure) {
  const fc::Graph& g = *graph_;
  std::vector<std::string> problems;
  try {
    Clock::time_point t0 = Clock::now();
    const auto fast = fc::core::run_fast_broadcast(g, input_.lambda,
                                                   messages_, opts_);
    const double fast_ms = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    const auto obl = fc::core::run_fast_broadcast_oblivious(g, messages_, opts_);
    const double oblivious_ms = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    const auto text = fc::core::run_textbook_broadcast(g, messages_, opts_);
    const double textbook_ms = seconds_since(t0) * 1e3;
    if (measure) {
      fast_ms_.push_back(fast_ms);
      oblivious_ms_.push_back(oblivious_ms);
      textbook_ms_.push_back(textbook_ms);
      fast_rounds_.push_back(static_cast<double>(fast.total_rounds));
      oblivious_rounds_.push_back(static_cast<double>(obl.total_rounds));
      textbook_rounds_.push_back(static_cast<double>(text.total_rounds));
    }
    for (const auto& p : {check("fast", fast, first_fast_),
                          check("oblivious", obl, first_oblivious_),
                          check("textbook", text, first_textbook_)})
      problems.insert(problems.end(), p.begin(), p.end());
  } catch (const std::exception& err) {
    problems.push_back(std::string("broadcast threw: ") + err.what());
  }
  ledger.record(problems);
}

void BcastLane::run_traced_op(Tracer& tracer, std::uint64_t op_id,
                              Ledger& ledger) {
  const fc::Graph& g = *graph_;
  std::vector<std::string> problems;
  try {
    const Clock::time_point t0 = Clock::now();
    const auto fast =
        fc::core::run_fast_broadcast(g, input_.lambda, messages_, opts_);
    const auto obl = fc::core::run_fast_broadcast_oblivious(g, messages_, opts_);
    const auto text = fc::core::run_textbook_broadcast(g, messages_, opts_);
    library_ms_ += seconds_since(t0) * 1e3;

    const std::size_t from = tracer.size();
    FastBroadcastReport rf, ro, rt;
    {
      auto op = tracer.op("op.bcast", op_id);
      rf = replay_fast(tracer, g, input_.lambda, messages_, opts_);
      ro = replay_oblivious(tracer, g, messages_, opts_);
      rt = replay_textbook(tracer, g, messages_, opts_);
    }
    replay_ms_ += tracer.sum(from, "op.bcast");
    for (const auto& d : {diff("fast replay", rf, fast),
                          diff("oblivious replay", ro, obl),
                          diff("textbook replay", rt, text)})
      problems.insert(problems.end(), d.begin(), d.end());
    for (const auto* rep : {&fast, &obl, &text})
      if (!rep->complete) problems.push_back("digest check failed");

    for (std::size_t i = 0; i < kLayerCount; ++i)
      layer_values_[i].push_back(
          tracer.sum(from, kLayerRules[i].span, kLayerRules[i].count));
  } catch (const std::exception& err) {
    problems.push_back(std::string("traced broadcast threw: ") + err.what());
  }
  ledger.record(problems);
}

Metrics BcastLane::end_to_end() const {
  return {
      {"fast_ms_p50", "ms", median(fast_ms_), ops()},
      {"oblivious_ms_p50", "ms", median(oblivious_ms_), ops()},
      {"textbook_ms_p50", "ms", median(textbook_ms_), ops()},
      {"fast_rounds", "rounds", median(fast_rounds_), ops()},
      {"oblivious_rounds", "rounds", median(oblivious_rounds_), ops()},
      {"textbook_rounds", "rounds", median(textbook_rounds_), ops()},
  };
}

Metrics BcastLane::per_layer() const {
  Metrics out;
  const std::vector<double>* msgs = nullptr;
  const std::vector<double>* ms = nullptr;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string_view name = kLayerRules[i].metric;
    if (name == "congest.part_bcast_msgs") msgs = &layer_values_[i];
    if (name == "congest.part_bcast_ms") ms = &layer_values_[i];
    out.push_back({kLayerRules[i].metric, kLayerRules[i].unit,
                   median(layer_values_[i]), layer_values_[i].size()});
  }
  // Composite broadcast throughput per op: messages over part_bcast time.
  std::vector<double> rate;
  for (std::size_t j = 0; j < msgs->size(); ++j)
    if ((*ms)[j] > 0) rate.push_back((*msgs)[j] / ((*ms)[j] * 1e-3) * 1e-6);
  out.push_back(
      {"congest.part_bcast_mmsgs_per_s", "Mmsg/s", median(rate), rate.size()});
  return out;
}

}  // namespace perfbench
