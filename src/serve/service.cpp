#include "serve/service.hpp"

#include <chrono>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "algo/bfs.hpp"
#include "apps/batch_sssp.hpp"
#include "congest/network.hpp"

namespace fc::serve {

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.pool_capacity, opts_.cache_dir) {
  if (opts_.window == 0)
    throw std::invalid_argument("serve: window must be >= 1");
}

std::string Service::count(Reply reply) {
  ++stats_.responses;
  if (!reply.ok) ++stats_.errors;
  return std::move(reply.line);
}

std::vector<std::string> Service::submit(const std::string& line) {
  ++stats_.requests;
  if (line.size() > opts_.max_request_bytes)
    return {count(fail(
        0, ErrorCode::kOversized,
        "request of " + std::to_string(line.size()) + " bytes exceeds the " +
            std::to_string(opts_.max_request_bytes) + "-byte limit"))};

  JsonValue parsed;
  try {
    parsed = parse_json(line);
  } catch (const std::exception& err) {
    return {count(fail(0, ErrorCode::kParse, err.what()))};
  }

  Request req;
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  if (!parse_request(parsed, &req, &code, &message))
    return {count(fail(req.query.id, code, message))};

  switch (req.command) {
    case Command::kFlush:
      return flush();
    case Command::kStats:
      return {count({stats_response(req.query.id), true})};
    case Command::kShutdown: {
      shutdown_ = true;
      std::vector<std::string> out = flush();
      JsonWriter w;
      w.begin_object()
          .field("id", req.query.id)
          .field("ok", true)
          .field("cmd", "shutdown")
          .end_object();
      out.push_back(count({w.take(), true}));
      return out;
    }
    case Command::kUpdate: {
      // Pending queries were submitted against the pre-update graph: flush
      // them first so responses never mix topologies within one window.
      std::vector<std::string> out = flush();
      out.push_back(count(update_response(req)));
      return out;
    }
    case Command::kNone:
      break;
  }

  // Admission control: a bounded queue sheds excess QUERIES (control lines
  // are never shed) with a typed overloaded error instead of letting the
  // backlog — and every client's latency — grow without bound. The retry
  // hint scales with the depth the client would have waited behind.
  if (opts_.max_pending > 0 && pending_.size() >= opts_.max_pending) {
    ++stats_.shed;
    const std::uint64_t retry_ms =
        1 + 2 * static_cast<std::uint64_t>(pending_.size());
    return {count(fail(
        req.query.id, ErrorCode::kOverloaded,
        "admission queue full (" + std::to_string(pending_.size()) +
            " pending); retry after backoff",
        retry_ms))};
  }

  // Validate what is checkable without a graph, so a doomed query errors
  // NOW instead of poisoning the window it would have batched with.
  PendingQuery p;
  p.query = std::move(req.query);
  if (!runner_.has(p.query.algo))
    return {count(fail(p.query.id, ErrorCode::kUnknownAlgo,
                       "unknown algorithm '" + p.query.algo +
                           "' (see scenario_runner --list)"))};
  try {
    p.spec = scenario::GraphSpec::parse(p.query.spec);
    p.pool_key = EnginePool::pool_key(p.spec);
    p.query.cfg = scenario::apply_spec_config(p.query.cfg, p.spec);
  } catch (const std::exception& err) {
    return {count(fail(p.query.id, ErrorCode::kBadSpec, err.what()))};
  }
  // The deadline clock starts at ADMISSION: time spent waiting in the
  // window counts against the budget, exactly what a latency SLO means.
  if (p.query.deadline_ms > 0)
    p.deadline =
        Clock::now() + std::chrono::milliseconds(p.query.deadline_ms);
  pending_.push_back(std::move(p));
  if (pending_.size() >= opts_.window) return flush();
  return {};
}

namespace {

/// Queries a batch primitive can answer together: same warm graph, same
/// engine knobs — and an algorithm with a documented bit-identical batch
/// twin (bfs -> BatchBfs, sssp -> BatchBellmanFord).
std::string coalesce_key(const std::string& pool_key,
                         const scenario::ScenarioConfig& cfg,
                         const std::string& algo) {
  return algo + '\n' + pool_key + '\n' + (cfg.force_dense ? "d" : "e") +
         '\n' + std::to_string(cfg.max_rounds);
}

}  // namespace

std::vector<std::string> Service::flush() {
  if (pending_.empty()) return {};
  ++stats_.flushes;
  std::vector<PendingQuery> batch = std::move(pending_);
  pending_.clear();

  congest::Telemetry telemetry(opts_.telemetry_mode);
  active_telemetry_ = telemetry.enabled() ? &telemetry : nullptr;

  std::vector<Reply> responses(batch.size());

  // Effective deadline per query: its own admission deadline tightened by
  // the flush budget, so one pathological window-mate cannot hold every
  // other query (and the transport's event loop) hostage.
  std::vector<std::optional<Clock::time_point>> deadlines(batch.size());
  if (opts_.flush_budget_ms > 0) {
    const Clock::time_point budget_deadline =
        Clock::now() + std::chrono::milliseconds(opts_.flush_budget_ms);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      deadlines[i] = batch[i].deadline;
      if (!deadlines[i] || budget_deadline < *deadlines[i])
        deadlines[i] = budget_deadline;
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i)
      deadlines[i] = batch[i].deadline;
  }

  // Group coalescible queries; everything else runs individually in order.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PendingQuery& p = batch[i];
    if (p.query.algo == "bfs" || p.query.algo == "sssp")
      groups[coalesce_key(p.pool_key, p.query.cfg, p.query.algo)]
          .push_back(i);
  }

  std::vector<std::uint8_t> handled(batch.size(), 0);
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    // sssp coalesces only on weighted specs: the batch twin needs the
    // warm WeightedGraph (unit-weight wrapping would copy the topology).
    if (batch[members.front()].query.algo == "sssp" &&
        !batch[members.front()].spec.has_weights())
      continue;
    if (batch[members.front()].query.algo == "bfs")
      run_coalesced_bfs(members, batch, deadlines, responses);
    else
      run_coalesced_sssp(members, batch, deadlines, responses);
    for (const std::size_t i : members) handled[i] = 1;
    ++stats_.coalesced_runs;
    stats_.coalesced_queries += members.size();
  }

  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!handled[i]) responses[i] = run_one(batch[i], deadlines[i]);

  active_telemetry_ = nullptr;
  if (telemetry.enabled() && opts_.metrics != nullptr) {
    congest::write_metrics_ndjson(*opts_.metrics, telemetry.snapshot());
    opts_.metrics->flush();
  }

  std::vector<std::string> lines;
  lines.reserve(responses.size());
  for (Reply& r : responses) lines.push_back(count(std::move(r)));
  return lines;
}

void Service::prepare_dynamic(const scenario::GraphSpec& spec) {
  if (!scenario::spec_is_dynamic(spec)) return;
  const std::string key = EnginePool::pool_key(spec);
  auto it = scenarios_.find(key);
  if (it == scenarios_.end())
    it = scenarios_.try_emplace(key, scenario::GraphSpec::parse(key)).first;
  if (pool_.find(spec) != nullptr) return;  // current graph already pooled
  const dynamic::DynamicScenario& sc = it->second;
  if (sc.has_weights())
    pool_.install(spec, sc.weighted());
  else
    pool_.install(spec, sc.graph());
}

Service::Reply Service::update_response(const Request& req) {
  const std::uint64_t id = req.query.id;
  // One command advances at most this many batches: a typo'd batch count
  // must not wedge the daemon in a churn loop.
  constexpr std::uint64_t kMaxBatchesPerCommand = 4096;
  try {
    const scenario::GraphSpec spec =
        scenario::GraphSpec::parse(req.update_spec);
    if (!scenario::spec_is_dynamic(spec))
      return fail(id, ErrorCode::kBadSpec,
                  "update requires a dynamic spec (churn=/updates=); got '" +
                      req.update_spec + "'");
    if (req.update_batches > kMaxBatchesPerCommand)
      return fail(
          id, ErrorCode::kBadRequest,
          "batches=" + std::to_string(req.update_batches) +
              " exceeds the per-command cap of " +
              std::to_string(kMaxBatchesPerCommand));
    const std::string key = EnginePool::pool_key(spec);
    auto it = scenarios_.find(key);
    if (it == scenarios_.end())
      it = scenarios_.try_emplace(key, scenario::GraphSpec::parse(key)).first;
    dynamic::DynamicScenario& sc = it->second;
    std::uint64_t deleted = 0, inserted = 0;
    for (std::uint64_t b = 0; b < req.update_batches; ++b) {
      const dynamic::UpdateBatch batch = sc.advance();
      deleted += batch.deleted.size();
      inserted += batch.inserted.size();
    }
    if (sc.has_weights())
      pool_.install(spec, sc.weighted());
    else
      pool_.install(spec, sc.graph());
    ++stats_.updates;
    stats_.update_batches += req.update_batches;
    stats_.edges_deleted += deleted;
    stats_.edges_inserted += inserted;
    JsonWriter w;
    w.begin_object()
        .field("id", id)
        .field("ok", true)
        .field("cmd", "update")
        .field("spec", key)
        .field("batch", sc.batch())
        .field("deleted", deleted)
        .field("inserted", inserted)
        .field("nodes", std::uint64_t{sc.graph().node_count()})
        .field("edges", std::uint64_t{sc.graph().edge_count()})
        .end_object();
    return {w.take(), true};
  } catch (const std::invalid_argument& err) {
    return fail(id, ErrorCode::kBadSpec, err.what());
  } catch (const std::exception& err) {
    return fail(id, ErrorCode::kInternal, err.what());
  }
}

Service::Reply Service::deadline_exceeded_response(
    std::uint64_t id, std::uint64_t cancelled_rounds,
    const std::string& message) {
  ++stats_.deadline_exceeded;
  stats_.cancelled_rounds += cancelled_rounds;
  return fail(id, ErrorCode::kDeadlineExceeded, message);
}

Service::Reply Service::run_one(
    const PendingQuery& p,
    const std::optional<Clock::time_point>& deadline) {
  Response resp;
  resp.id = p.query.id;
  // Already expired (queue wait ate the whole budget): don't even touch
  // the pool — the client has given up on this answer.
  if (deadline && Clock::now() >= *deadline)
    return deadline_exceeded_response(resp.id, 0,
                                      "deadline expired before execution");
  try {
    prepare_dynamic(p.spec);
    EnginePool::Entry& entry = pool_.acquire(p.spec, &resp.cache_hit);
    const Graph& g = entry.graph();
    if (p.query.cfg.root >= g.node_count())
      return fail(
          resp.id, ErrorCode::kBadSource,
          "root " + std::to_string(p.query.cfg.root) +
              " out of range for n=" + std::to_string(g.node_count()));
    if (p.query.cfg.sources > g.node_count())
      return fail(
          resp.id, ErrorCode::kBadSource,
          "sources=" + std::to_string(p.query.cfg.sources) +
              " exceeds the graph's n=" + std::to_string(g.node_count()));

    scenario::ScenarioConfig cfg = p.query.cfg;
    cfg.pool = opts_.pool;
    cfg.network = entry.network.get();
    cfg.telemetry = active_telemetry_;
    scenario::ScenarioPayload payload;
    if (p.query.want_payload) cfg.payload = &payload;
    congest::CancelToken token;
    if (deadline) {
      token.set_deadline(*deadline);
      cfg.cancel = &token;
    }

    const std::uint64_t runs_before = entry.network->runs_started();
    resp.result =
        entry.is_weighted()
            ? runner_.run(p.query.algo, entry.weighted_graph(), entry.key,
                          cfg)
            : runner_.run(p.query.algo, g, entry.key, cfg);
    if (resp.result.cancelled)
      return deadline_exceeded_response(
          resp.id, resp.result.rounds,
          "deadline expired after " + std::to_string(resp.result.rounds) +
              " engine rounds (run cancelled)");
    // Response-time check: catches work outside any engine round (e.g.
    // weighted-apsp's λ estimate and spanner) and runs that finished just
    // past the deadline — the client stopped waiting either way.
    if (deadline && Clock::now() >= *deadline)
      return deadline_exceeded_response(resp.id, 0,
                                        "answer produced after the deadline");
    resp.engine_reused =
        resp.cache_hit && entry.network->runs_started() > runs_before;
    resp.ok = true;
    if (p.query.want_payload) {
      resp.has_payload = true;
      resp.payload = std::move(payload);
    }
    return {serialize(resp), true};
  } catch (const std::invalid_argument& err) {
    return fail(resp.id, ErrorCode::kBadSpec, err.what());
  } catch (const std::exception& err) {
    return fail(resp.id, ErrorCode::kInternal, err.what());
  }
}

namespace {

/// The one cancellation deadline a coalesced execution runs under: the
/// LATEST live member's effective deadline — cancelling at the earliest
/// would truncate window-mates that still have budget; members whose own
/// deadline passes earlier are converted at response time. Unarmed
/// (nullopt) when any live member has no deadline at all: that member is
/// owed a full run.
std::optional<congest::CancelToken::Clock::time_point> group_deadline_of(
    const std::vector<std::size_t>& live,
    const std::vector<std::optional<congest::CancelToken::Clock::time_point>>&
        deadlines) {
  congest::CancelToken::Clock::time_point latest{};
  for (const std::size_t i : live) {
    if (!deadlines[i]) return std::nullopt;
    latest = std::max(latest, *deadlines[i]);
  }
  return latest;
}

}  // namespace

void Service::run_coalesced_bfs(
    const std::vector<std::size_t>& members,
    std::vector<PendingQuery>& batch,
    const std::vector<std::optional<Clock::time_point>>& deadlines,
    std::vector<Reply>& responses) {
  const PendingQuery& first = batch[members.front()];
  bool cache_hit = false;
  EnginePool::Entry* entry = nullptr;
  try {
    prepare_dynamic(first.spec);
    entry = &pool_.acquire(first.spec, &cache_hit);
  } catch (const std::exception& err) {
    for (const std::size_t i : members)
      responses[i] = fail(batch[i].query.id, ErrorCode::kBadSpec, err.what());
    return;
  }
  const Graph& g = entry->graph();

  // Per-query roots become the batch's source list; invalid roots — and
  // queries whose deadline already expired — error individually and drop
  // out of the execution.
  std::vector<NodeId> sources;
  std::vector<std::size_t> live;
  for (const std::size_t i : members) {
    if (deadlines[i] && Clock::now() >= *deadlines[i]) {
      responses[i] = deadline_exceeded_response(
          batch[i].query.id, 0, "deadline expired before execution");
      continue;
    }
    const NodeId root = batch[i].query.cfg.root;
    if (root >= g.node_count()) {
      responses[i] = fail(
          batch[i].query.id, ErrorCode::kBadSource,
          "root " + std::to_string(root) +
              " out of range for n=" + std::to_string(g.node_count()));
      continue;
    }
    sources.push_back(root);
    live.push_back(i);
  }
  if (live.empty()) return;

  try {
    // Group members share their engine knobs (the coalesce key).
    congest::RunOptions ropts = first.query.cfg;
    ropts.telemetry = active_telemetry_;
    ropts.pool = opts_.pool;
    congest::CancelToken token;
    if (const auto group = group_deadline_of(live, deadlines)) {
      token.set_deadline(*group);
      ropts.cancel = &token;
    }
    algo::BatchBfs alg(g, sources);
    const std::uint64_t runs_before = entry->network->runs_started();
    const auto cost = entry->network->run(alg, ropts);
    if (cost.cancelled) {
      for (std::size_t s = 0; s < live.size(); ++s)
        responses[live[s]] = deadline_exceeded_response(
            batch[live[s]].query.id, s == 0 ? cost.rounds : 0,
            "deadline expired after " + std::to_string(cost.rounds) +
                " engine rounds (coalesced run cancelled)");
      return;
    }
    const congest::HistogramSummary h =
        congest::summarize_counts(cost.arc_sends);

    for (std::size_t s = 0; s < live.size(); ++s) {
      if (deadlines[live[s]] && Clock::now() >= *deadlines[live[s]]) {
        responses[live[s]] = deadline_exceeded_response(
            batch[live[s]].query.id, 0, "answer produced after the deadline");
        continue;
      }
      const std::size_t i = live[s];
      Response resp;
      resp.id = batch[i].query.id;
      resp.ok = true;
      resp.cache_hit = cache_hit;
      resp.engine_reused =
          cache_hit && entry->network->runs_started() > runs_before;
      resp.coalesced = static_cast<std::uint32_t>(live.size());
      scenario::ScenarioResult& r = resp.result;
      r.graph = entry->key;
      r.algo = "bfs";
      r.nodes = g.node_count();
      r.edges = g.edge_count();
      r.rounds = cost.rounds;
      r.messages = cost.messages;
      r.max_arc_congestion = congest::max_arc_congestion(cost.arc_sends);
      r.max_edge_congestion =
          congest::max_edge_congestion(g, cost.arc_sends);
      r.arc_p50 = h.p50;
      r.arc_p99 = h.p99;
      r.finished = cost.finished;
      r.note = "coalesced depth=" +
               std::to_string(alg.depth(static_cast<std::uint32_t>(s))) +
               " reached=" +
               std::to_string(
                   alg.reached_count(static_cast<std::uint32_t>(s)));
      if (batch[i].query.want_payload) {
        resp.has_payload = true;
        resp.payload.hops.push_back(
            alg.source_distances(static_cast<std::uint32_t>(s)));
        resp.payload.sources = {sources[s]};
      }
      responses[i] = {serialize(resp), true};
    }
  } catch (const std::exception& err) {
    for (const std::size_t i : live)
      responses[i] = fail(batch[i].query.id, ErrorCode::kInternal, err.what());
  }
}

void Service::run_coalesced_sssp(
    const std::vector<std::size_t>& members,
    std::vector<PendingQuery>& batch,
    const std::vector<std::optional<Clock::time_point>>& deadlines,
    std::vector<Reply>& responses) {
  const PendingQuery& first = batch[members.front()];
  bool cache_hit = false;
  EnginePool::Entry* entry = nullptr;
  try {
    prepare_dynamic(first.spec);
    entry = &pool_.acquire(first.spec, &cache_hit);
  } catch (const std::exception& err) {
    for (const std::size_t i : members)
      responses[i] = fail(batch[i].query.id, ErrorCode::kBadSpec, err.what());
    return;
  }
  const WeightedGraph& wg = entry->weighted_graph();
  const Graph& g = wg.graph();

  std::vector<NodeId> sources;
  std::vector<std::size_t> live;
  for (const std::size_t i : members) {
    if (deadlines[i] && Clock::now() >= *deadlines[i]) {
      responses[i] = deadline_exceeded_response(
          batch[i].query.id, 0, "deadline expired before execution");
      continue;
    }
    const NodeId root = batch[i].query.cfg.root;
    if (root >= g.node_count()) {
      responses[i] = fail(
          batch[i].query.id, ErrorCode::kBadSource,
          "root " + std::to_string(root) +
              " out of range for n=" + std::to_string(g.node_count()));
      continue;
    }
    sources.push_back(root);
    live.push_back(i);
  }
  if (live.empty()) return;

  try {
    // Group members share their engine knobs (the coalesce key).
    apps::BatchSsspOptions opts{first.query.cfg, entry->network.get()};
    opts.telemetry = active_telemetry_;
    opts.pool = opts_.pool;
    congest::CancelToken token;
    if (const auto group = group_deadline_of(live, deadlines)) {
      token.set_deadline(*group);
      opts.cancel = &token;
    }
    const std::uint64_t runs_before = entry->network->runs_started();
    auto rep = apps::batch_sssp(wg, sources, opts);
    if (rep.cancelled) {
      for (std::size_t s = 0; s < live.size(); ++s)
        responses[live[s]] = deadline_exceeded_response(
            batch[live[s]].query.id, s == 0 ? rep.rounds : 0,
            "deadline expired after " + std::to_string(rep.rounds) +
                " engine rounds (coalesced run cancelled)");
      return;
    }
    const congest::HistogramSummary h =
        congest::summarize_counts(rep.arc_sends);

    for (std::size_t s = 0; s < live.size(); ++s) {
      const std::size_t i = live[s];
      if (deadlines[i] && Clock::now() >= *deadlines[i]) {
        responses[i] = deadline_exceeded_response(
            batch[i].query.id, 0, "answer produced after the deadline");
        continue;
      }
      Response resp;
      resp.id = batch[i].query.id;
      resp.ok = true;
      resp.cache_hit = cache_hit;
      resp.engine_reused =
          cache_hit && entry->network->runs_started() > runs_before;
      resp.coalesced = static_cast<std::uint32_t>(live.size());
      scenario::ScenarioResult& r = resp.result;
      r.graph = entry->key;
      r.algo = "sssp";
      r.nodes = g.node_count();
      r.edges = g.edge_count();
      r.rounds = rep.rounds;
      r.messages = rep.messages;
      r.max_arc_congestion = congest::max_arc_congestion(rep.arc_sends);
      r.max_edge_congestion = congest::max_edge_congestion(g, rep.arc_sends);
      r.arc_p50 = h.p50;
      r.arc_p99 = h.p99;
      r.finished = rep.finished;
      r.note = "coalesced reached=" + std::to_string(rep.reached[s]) +
               " max_dist=" + std::to_string(rep.max_dist[s]);
      if (batch[i].query.want_payload) {
        resp.has_payload = true;
        resp.payload.distances.push_back(std::move(rep.dist[s]));
        resp.payload.sources = {sources[s]};
      }
      responses[i] = {serialize(resp), true};
    }
  } catch (const std::exception& err) {
    for (const std::size_t i : live)
      responses[i] = fail(batch[i].query.id, ErrorCode::kInternal, err.what());
  }
}

std::string Service::stats_response(std::uint64_t id) const {
  const PoolStats& ps = pool_.stats();
  JsonWriter w;
  w.begin_object().field("id", id).field("ok", true);
  w.key("stats").begin_object();
  w.field("requests", stats_.requests)
      .field("responses", stats_.responses)
      .field("errors", stats_.errors)
      .field("flushes", stats_.flushes)
      .field("coalesced_queries", stats_.coalesced_queries)
      .field("coalesced_runs", stats_.coalesced_runs)
      .field("updates", stats_.updates)
      .field("update_batches", stats_.update_batches)
      .field("edges_deleted", stats_.edges_deleted)
      .field("edges_inserted", stats_.edges_inserted)
      .field("deadline_exceeded", stats_.deadline_exceeded)
      .field("cancelled_rounds", stats_.cancelled_rounds)
      .field("shed", stats_.shed)
      .field("sigpipe_drops", stats_.sigpipe_drops)
      .field("dynamic_scenarios", std::uint64_t{scenarios_.size()})
      .field("pending", std::uint64_t{pending_.size()});
  w.key("pool").begin_object();
  w.field("hits", ps.hits)
      .field("misses", ps.misses)
      .field("evictions", ps.evictions)
      .field("graph_builds", ps.graph_builds)
      .field("corpus_loads", ps.corpus_loads)
      .field("installs", ps.installs)
      .field("stale_rebuilds", ps.stale_rebuilds)
      .field("size", std::uint64_t{pool_.size()})
      .field("capacity", std::uint64_t{pool_.capacity()});
  w.end_object();  // pool
  w.end_object();  // stats
  w.end_object();
  return w.take();
}

}  // namespace fc::serve
