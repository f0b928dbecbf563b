#include "serve_lane.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>

#include "congest/network.hpp"
#include "dynamic/scenario.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/graph_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/engine_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

const char* class_name(QueryClass c) {
  switch (c) {
    case QueryClass::kWarm:
      return "warm";
    case QueryClass::kCold:
      return "cold";
    case QueryClass::kUpdate:
      return "update";
  }
  return "?";
}

namespace {

const std::string kHotSpec =
    "rmat:n=4096,deg=8,seed=1,weights=1..100,largest_cc=1";
const std::string kDynamicSpec =
    "rmat:n=16384,deg=8,seed=9,weights=1..100,churn=0.01";
/// Pool capacity + 2 cold specs: with the hot and dynamic entries touched
/// every cycle, a cold spec is always evicted before its next visit.
constexpr std::size_t kColdSpecs = 6;
/// Update-class sssp roots are drawn below this bound: the low rmat ids
/// sit in the giant component, so every root does real work.
constexpr std::uint64_t kUpdateRootBound = 256;

std::string cold_spec(std::size_t i) {
  return "rmat:n=16384,deg=8,seed=" + std::to_string(i + 1) + ",largest_cc=1";
}

std::string query_line(std::uint64_t id, const std::string& spec,
                       const char* algo, std::uint64_t root, bool payload) {
  fc::JsonWriter w;
  w.begin_object()
      .field("id", id)
      .field("spec", spec)
      .field("algo", algo)
      .field("root", root);
  if (payload) w.field("payload", true);
  w.end_object();
  return w.take();
}

std::string update_line(std::uint64_t id) {
  fc::JsonWriter w;
  w.begin_object()
      .field("id", id)
      .field("cmd", "update")
      .field("spec", kDynamicSpec)
      .end_object();
  return w.take();
}

// ------------------------------------------------------------------ daemon

/// scenario_serve as a child process on a stdin/stdout pipe pair.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args) {
    std::vector<std::string> words = {bin};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& w : words) argv.push_back(w.data());
    argv.push_back(nullptr);
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0) throw std::runtime_error("pipe failed");
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      throw std::runtime_error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (pid_ < 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      throw std::runtime_error("fork failed");
    }
    to_ = to_child[1];
    from_ = from_child[0];
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Send one line and wait for its answer line.
  std::string request(const std::string& line) {
    const std::string out = line + '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(to_, out.data() + off, out.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0)
        throw std::runtime_error(std::string("daemon write failed: ") +
                                 std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string answer = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return answer;
      }
      char chunk[65536];
      const ssize_t n = ::read(from_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon closed its output");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Close the daemon's input (it drains and exits) and reap it. Returns
  /// the exit status, or -1 when it did not exit normally.
  int stop() {
    if (pid_ <= 0) return -1;
    ::close(to_);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(from_);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buffer_;
};

// ------------------------------------------------------------------ replay

/// Service::run_one and Service::update_response, call for call, through
/// the public functions of the serve, scenario and dynamic layers.
class ServeReplay {
 public:
  explicit ServeReplay(std::string cache_dir)
      : cache_dir_(std::move(cache_dir)),
        pool_(fc::serve::ServiceOptions{}.pool_capacity, cache_dir_) {}

  std::string query(Tracer& t, const std::string& line) {
    fc::serve::Request req;
    fc::scenario::GraphSpec spec;
    {
      auto s = t.span("serve.parse");
      parse(line, req);
      spec = fc::scenario::GraphSpec::parse(req.query.spec);
      req.query.cfg = fc::scenario::apply_spec_config(req.query.cfg, spec);
    }
    if (fc::scenario::spec_is_dynamic(spec)) {
      auto s = t.span("serve.prepare_dynamic");
      scenario_for(spec);
      if (pool_.find(spec) == nullptr) install(spec);
    }
    fc::serve::Response resp;
    resp.id = req.query.id;
    fc::serve::EnginePool::Entry* entry = nullptr;
    {
      auto s = t.span("serve.acquire");
      const fc::serve::PoolStats before = pool_.stats();
      entry = &pool_.acquire(spec, &resp.cache_hit);
      const fc::serve::PoolStats& after = pool_.stats();
      s.rename(after.stale_rebuilds > before.stale_rebuilds
                   ? "serve.acquire_stale"
               : after.misses > before.misses ? "serve.acquire_miss"
               : resp.cache_hit               ? "serve.acquire_hit"
                                              : "serve.acquire_build");
    }
    fc::scenario::ScenarioPayload payload;
    {
      auto s = t.span("scenario.run");
      fc::scenario::ScenarioConfig cfg = req.query.cfg;
      cfg.network = entry->network.get();
      if (req.query.want_payload) cfg.payload = &payload;
      const std::uint64_t runs_before = entry->network->runs_started();
      resp.result =
          entry->is_weighted()
              ? runner_.run(req.query.algo, entry->weighted_graph(),
                            entry->key, cfg)
              : runner_.run(req.query.algo, entry->graph(), entry->key, cfg);
      resp.engine_reused =
          resp.cache_hit && entry->network->runs_started() > runs_before;
      s.arg("rounds", static_cast<double>(resp.result.rounds));
    }
    resp.ok = true;
    if (req.query.want_payload) {
      resp.has_payload = true;
      resp.payload = std::move(payload);
    }
    auto s = t.span("serve.serialize");
    std::string answer = fc::serve::serialize(resp);
    s.arg("bytes", static_cast<double>(answer.size()));
    return answer;
  }

  struct UpdateResult {
    std::uint64_t batch = 0, deleted = 0, inserted = 0, nodes = 0, edges = 0;
  };

  UpdateResult update(Tracer& t, const std::string& line) {
    fc::serve::Request req;
    fc::scenario::GraphSpec spec;
    {
      auto s = t.span("serve.parse");
      parse(line, req);
      spec = fc::scenario::GraphSpec::parse(req.update_spec);
    }
    fc::dynamic::DynamicScenario* sc = nullptr;
    {
      auto s = t.span("serve.prepare_dynamic");
      sc = &scenario_for(spec);
    }
    UpdateResult out;
    {
      auto s = t.span("dynamic.advance");
      for (std::uint64_t b = 0; b < req.update_batches; ++b) {
        const fc::dynamic::UpdateBatch batch = sc->advance();
        out.deleted += batch.deleted.size();
        out.inserted += batch.inserted.size();
      }
      s.arg("edges_changed", static_cast<double>(out.deleted + out.inserted));
    }
    {
      auto s = t.span("serve.install");
      install(spec);
    }
    out.batch = sc->batch();
    out.nodes = sc->graph().node_count();
    out.edges = sc->graph().edge_count();
    return out;
  }

  /// Time the two stages of a cold miss alone: the corpus load of the
  /// spec's topology and the engine build on it. False when the topology
  /// did not come from the corpus.
  bool probe_miss(Tracer& t, std::uint64_t op_id, const std::string& text) {
    auto p = t.probe("probe.cold_miss", op_id);
    const fc::scenario::GraphSpec spec = fc::scenario::GraphSpec::parse(
        fc::serve::EnginePool::pool_key(fc::scenario::GraphSpec::parse(text)));
    bool from_corpus = false;
    std::optional<fc::Graph> g;
    {
      auto s = t.span("scenario.corpus_load");
      g.emplace(fc::scenario::load_or_generate(spec, cache_dir_, &from_corpus));
    }
    std::optional<fc::congest::Network> net;
    {
      auto s = t.span("congest.engine_build");
      net.emplace(*g);
    }
    return from_corpus;
  }

 private:
  static void parse(const std::string& line, fc::serve::Request& req) {
    fc::serve::ErrorCode code = fc::serve::ErrorCode::kNone;
    std::string message;
    if (!fc::serve::parse_request(fc::parse_json(line), &req, &code, &message))
      throw std::runtime_error("replay: request rejected: " + message);
  }

  fc::dynamic::DynamicScenario& scenario_for(
      const fc::scenario::GraphSpec& spec) {
    const std::string key = fc::serve::EnginePool::pool_key(spec);
    auto it = scenarios_.find(key);
    if (it == scenarios_.end())
      it = scenarios_
               .try_emplace(key, fc::scenario::GraphSpec::parse(key))
               .first;
    return it->second;
  }

  void install(const fc::scenario::GraphSpec& spec) {
    const fc::dynamic::DynamicScenario& sc = scenario_for(spec);
    if (sc.has_weights())
      pool_.install(spec, sc.weighted());
    else
      pool_.install(spec, sc.graph());
  }

  std::string cache_dir_;
  fc::scenario::ScenarioRunner runner_;
  fc::serve::EnginePool pool_;
  std::map<std::string, fc::dynamic::DynamicScenario> scenarios_;
};

struct PoolCounters {
  double corpus_loads = 0, graph_builds = 0, stale_rebuilds = 0, errors = 0;
};

PoolCounters stats_of(Daemon& d) {
  const fc::JsonValue v = fc::parse_json(d.request("{\"cmd\": \"stats\"}"));
  const fc::JsonValue* stats = v.find("stats");
  const fc::JsonValue* pool = stats ? stats->find("pool") : nullptr;
  if (pool == nullptr) throw std::runtime_error("stats answer has no pool");
  return {pool->num("corpus_loads"), pool->num("graph_builds"),
          pool->num("stale_rebuilds"), stats->num("errors")};
}

/// Parse a daemon answer; a line that is not JSON is a failed check.
std::optional<fc::JsonValue> parse_answer(const std::string& line,
                                          std::vector<std::string>& problems) {
  try {
    return fc::parse_json(line);
  } catch (const std::exception& err) {
    problems.push_back(std::string("answer is not JSON: ") + err.what());
    return std::nullopt;
  }
}

}  // namespace

struct ServeLane::State {
  std::string serve_bin;
  std::string work_dir;
  std::string corpus;
  bool traced = false;
  fc::Rng rng;
  QueryClass order[3] = {QueryClass::kWarm, QueryClass::kCold,
                         QueryClass::kUpdate};

  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<fc::serve::Service> service;  // traced only
  std::unique_ptr<ServeReplay> replay;          // traced only

  // Facts learned at warm-up.
  std::uint64_t hot_nodes = 0;
  std::uint64_t cold_nodes[kColdSpecs] = {};
  std::optional<fc::WeightedGraph> hot_graph;  // the Dijkstra oracle's input
  std::map<std::uint64_t, std::vector<fc::Weight>> oracle;
  // Per daemon.
  PoolCounters base;
  std::uint64_t batch = 0;  // the dynamic spec's batch index
  std::size_t next_cold = 0;
  std::uint64_t cold_ops = 0, update_ops = 0;

  // Samples per class (index = QueryClass).
  std::vector<double> latency_ms[3];
  std::vector<double> service_ms[3];
  std::vector<double> transport_ms[3];  // per op: daemon latency - service
  std::vector<double> run_ms[3];
  double hits[3] = {}, reuses[3] = {}, answers[3] = {};
  std::vector<double> response_kb;
  std::vector<double> parse_ms, acquire_hit_ms, acquire_miss_ms,
      acquire_stale_ms, corpus_load_ms, engine_build_ms, serialize_ms,
      advance_ms, edges_changed;
  PoolCounters delta;  // summed over the run's daemons

  State(std::uint64_t seed) : rng(fc::mix64(seed, 0x7365727665ULL)) {}

  /// A warm-up query to the daemon, and in traced mode to the in-process
  /// Service and the replay too, so all three hold the same pool state.
  /// Returns the daemon's answer.
  std::string warmup(Tracer& t, const std::string& line) {
    std::string answer = daemon->request(line);
    if (service) service->submit(line);
    if (replay) replay->query(t, line);
    return answer;
  }
};

ServeLane::ServeLane(std::string serve_bin, std::string work_dir,
                     std::uint64_t seed, bool traced)
    : s_(std::make_unique<State>(seed)) {
  s_->serve_bin = std::move(serve_bin);
  s_->work_dir = std::move(work_dir);
  s_->corpus = s_->work_dir + "/corpus";
  s_->traced = traced;
  // A seeded class order, fixed for the run: every cycle touches the hot
  // and the dynamic entry once, so neither is ever evicted.
  for (int i = 2; i > 0; --i)
    std::swap(s_->order[i], s_->order[s_->rng.below(i + 1)]);
}

ServeLane::~ServeLane() = default;

double ServeLane::start() {
  State& s = *s_;
  s.daemon.reset();
  s.service.reset();
  s.replay.reset();
  std::filesystem::remove_all(s.corpus);
  std::filesystem::create_directories(s.corpus);

  const Clock::time_point t0 = Clock::now();
  s.daemon = std::make_unique<Daemon>(
      s.serve_bin, std::vector<std::string>{"--cache=" + s.corpus});
  Tracer warm_tracer;  // warm-up spans are not reported
  if (s.traced) {
    fc::serve::ServiceOptions opts;
    opts.cache_dir = s.corpus;
    s.service = std::make_unique<fc::serve::Service>(opts);
    s.replay = std::make_unique<ServeReplay>(s.corpus);
  }
  const auto nodes_of = [](const std::string& answer) {
    const fc::JsonValue v = fc::parse_json(answer);
    if (!v.flag("ok"))
      throw std::runtime_error("warm-up query failed: " + answer);
    return static_cast<std::uint64_t>(v.num("nodes"));
  };
  for (std::size_t i = 0; i < kColdSpecs; ++i)
    s.cold_nodes[i] =
        nodes_of(s.warmup(warm_tracer, query_line(0, cold_spec(i), "bfs", 0,
                                                   false)));
  s.hot_nodes = nodes_of(
      s.warmup(warm_tracer, query_line(0, kHotSpec, "sssp", 0, true)));
  nodes_of(s.warmup(warm_tracer, query_line(0, kDynamicSpec, "sssp", 0,
                                             false)));
  const double seconds = seconds_since(t0);

  s.base = stats_of(*s.daemon);
  s.batch = 0;
  s.next_cold = 0;
  s.cold_ops = 0;
  s.update_ops = 0;
  if (!s.hot_graph)
    s.hot_graph.emplace(
        fc::scenario::Registry::instance().build_weighted(kHotSpec));
  return seconds;
}

void ServeLane::run_cycle(Tracer* tracer, std::uint64_t& op_id,
                          Ledger& ledger, bool measure) {
  State& s = *s_;
  for (const QueryClass c : s.order) {
    const auto ci = static_cast<std::size_t>(c);
    const std::uint64_t id = ++op_id;
    std::vector<std::string> problems;
    try {
      // The op's lines: one query, or an update then a query.
      std::vector<std::string> lines;
      std::size_t cold_index = 0;
      std::uint64_t root = 0;
      switch (c) {
        case QueryClass::kWarm:
          root = s.rng.below(s.hot_nodes);
          lines = {query_line(id, kHotSpec, "sssp", root, true)};
          break;
        case QueryClass::kCold:
          cold_index = s.next_cold++ % kColdSpecs;
          root = s.rng.below(s.cold_nodes[cold_index]);
          lines = {query_line(id, cold_spec(cold_index), "bfs", root, false)};
          ++s.cold_ops;
          break;
        case QueryClass::kUpdate:
          root = s.rng.below(kUpdateRootBound);
          lines = {update_line(id),
                   query_line(id, kDynamicSpec, "sssp", root, false)};
          ++s.update_ops;
          break;
      }

      // Traced ops alternate which server answers first, so neither the
      // daemon nor the in-process Service always runs on warmer caches.
      std::vector<std::string> service_answers;
      double service = 0;
      const auto submit_in_process = [&] {
        for (const std::string& line : lines) {
          const Clock::time_point ts = Clock::now();
          const std::vector<std::string> out = s.service->submit(line);
          service += seconds_since(ts) * 1e3;
          service_answers.push_back(out.size() == 1 ? out[0] : "");
        }
      };
      if (tracer != nullptr && id % 2 == 1) submit_in_process();
      std::vector<std::string> answers;
      const Clock::time_point t0 = Clock::now();
      for (const std::string& line : lines)
        answers.push_back(s.daemon->request(line));
      const double latency = seconds_since(t0) * 1e3;
      if (measure) {
        s.latency_ms[ci].push_back(latency);
        busy_ms_ += latency;
      }
      if (tracer != nullptr && id % 2 == 0) submit_in_process();

      // Checks on the daemon's answers.
      std::vector<fc::JsonValue> parsed;
      for (const std::string& a : answers)
        if (auto v = parse_answer(a, problems)) parsed.push_back(*v);
      if (parsed.size() == answers.size()) {
        for (const fc::JsonValue& v : parsed)
          if (!v.flag("ok"))
            problems.push_back(std::string(class_name(c)) +
                               " answer not ok: " + v.str("message"));
        const fc::JsonValue& q = parsed.back();
        s.answers[ci] += 1;
        s.hits[ci] += q.flag("cache_hit");
        s.reuses[ci] += q.flag("engine_reused");
        if (!q.flag("finished"))
          problems.push_back(std::string(class_name(c)) + " run unfinished");
        if (c == QueryClass::kWarm) {
          s.response_kb.push_back(static_cast<double>(answers[0].size()) /
                                  1024.0);
          if (!q.flag("cache_hit") || !q.flag("engine_reused"))
            problems.push_back("warm answer missed the warm engine");
          auto& want = s.oracle[root];
          if (want.empty()) want = fc::dijkstra(*s.hot_graph, root);
          const fc::JsonValue* d = q.find("distances");
          const bool shaped = d != nullptr && d->is_array() &&
                              d->items.size() == 1 &&
                              d->items[0].items.size() == want.size();
          bool equal = shaped;
          for (std::size_t v = 0; equal && v < want.size(); ++v) {
            const double got = d->items[0].items[v].number;
            equal = want[v] == fc::kInfWeight
                        ? got == -1
                        : got == static_cast<double>(want[v]);
          }
          if (!equal)
            problems.push_back("warm distances differ from Dijkstra, root " +
                               std::to_string(root));
        } else if (c == QueryClass::kCold) {
          if (q.flag("cache_hit"))
            problems.push_back("cold answer hit the pool");
          if (q.num("nodes") != static_cast<double>(s.cold_nodes[cold_index]))
            problems.push_back("cold answer has the wrong node count");
        } else {
          const fc::JsonValue& u = parsed.front();
          if (u.num("batch") != static_cast<double>(++s.batch))
            problems.push_back("update did not advance one batch");
          if (u.num("deleted") + u.num("inserted") <= 0)
            problems.push_back("update changed no edge");
          if (q.flag("cache_hit"))
            problems.push_back("query after update reused a stale engine");
        }
      }

      if (tracer != nullptr) {
        if (service_answers != answers)
          problems.push_back(std::string(class_name(c)) +
                             ": in-process Service answer differs");
        s.service_ms[ci].push_back(service);
        s.transport_ms[ci].push_back(latency - service);

        // The replay: the same lines, one span per layer call.
        const std::size_t from = tracer->size();
        std::string replayed;
        ServeReplay::UpdateResult upd;
        {
          auto op = tracer->op(std::string("op.") + class_name(c), id);
          if (c == QueryClass::kUpdate) upd = s.replay->update(*tracer, lines[0]);
          replayed = s.replay->query(*tracer, lines.back());
        }
        replay_ms_ += tracer->sum(from, std::string("op.") + class_name(c));
        if (replayed != answers.back())
          problems.push_back(std::string(class_name(c)) +
                             ": replay answer differs from the daemon's");
        if (c == QueryClass::kUpdate && parsed.size() == 2) {
          const fc::JsonValue& u = parsed.front();
          if (u.num("batch") != static_cast<double>(upd.batch) ||
              u.num("deleted") != static_cast<double>(upd.deleted) ||
              u.num("inserted") != static_cast<double>(upd.inserted) ||
              u.num("nodes") != static_cast<double>(upd.nodes) ||
              u.num("edges") != static_cast<double>(upd.edges))
            problems.push_back("replayed update differs from the daemon's");
        }
        if (c == QueryClass::kCold &&
            !s.replay->probe_miss(*tracer, id, cold_spec(cold_index)))
          problems.push_back("cold topology was not in the corpus");

        for (std::size_t i = from; i < tracer->size(); ++i) {
          const Span& sp = tracer->spans()[i];
          const double ms = sp.ms();
          if (sp.name == "serve.parse") s.parse_ms.push_back(ms);
          else if (sp.name == "serve.acquire_hit") s.acquire_hit_ms.push_back(ms);
          else if (sp.name == "serve.acquire_miss") s.acquire_miss_ms.push_back(ms);
          else if (sp.name == "serve.acquire_stale") s.acquire_stale_ms.push_back(ms);
          else if (sp.name == "scenario.corpus_load") s.corpus_load_ms.push_back(ms);
          else if (sp.name == "congest.engine_build") s.engine_build_ms.push_back(ms);
          else if (sp.name == "scenario.run") s.run_ms[ci].push_back(ms);
          else if (sp.name == "serve.serialize" && c == QueryClass::kWarm)
            s.serialize_ms.push_back(ms);
          else if (sp.name == "dynamic.advance") {
            s.advance_ms.push_back(ms);
            for (const auto& [key, value] : sp.args)
              if (key == "edges_changed") s.edges_changed.push_back(value);
          }
        }
      }
    } catch (const std::exception& err) {
      problems.push_back(std::string(class_name(c)) + " op threw: " +
                         err.what());
    }
    ledger.record(problems);
  }
}

void ServeLane::stop(Ledger& ledger) {
  State& s = *s_;
  std::vector<std::string> problems;
  try {
    const PoolCounters now = stats_of(*s.daemon);
    const PoolCounters d = {now.corpus_loads - s.base.corpus_loads,
                            now.graph_builds - s.base.graph_builds,
                            now.stale_rebuilds - s.base.stale_rebuilds,
                            now.errors - s.base.errors};
    s.delta.corpus_loads += d.corpus_loads;
    s.delta.graph_builds += d.graph_builds;
    s.delta.stale_rebuilds += d.stale_rebuilds;
    s.delta.errors += d.errors;
    if (d.corpus_loads != static_cast<double>(s.cold_ops))
      problems.push_back("corpus_loads delta " +
                         std::to_string(d.corpus_loads) + " != cold ops " +
                         std::to_string(s.cold_ops));
    if (d.graph_builds != 0) problems.push_back("graph_builds delta is not 0");
    if (d.stale_rebuilds != static_cast<double>(s.update_ops))
      problems.push_back("stale_rebuilds delta != update ops");
    if (d.errors != 0) problems.push_back("daemon counted errors");
    if (const int status = s.daemon->stop(); status != 0)
      problems.push_back("daemon exited with status " + std::to_string(status));
  } catch (const std::exception& err) {
    problems.push_back(std::string("stats audit threw: ") + err.what());
  }
  s.daemon.reset();
  ledger.record(problems);
}

double ServeLane::service_ms() const {
  double total = 0;
  for (const auto& v : s_->service_ms)
    for (const double x : v) total += x;
  return total;
}

Metrics ServeLane::end_to_end() const {
  const State& s = *s_;
  const auto& w = s.latency_ms[0];
  const auto& c = s.latency_ms[1];
  const auto& u = s.latency_ms[2];
  const double ops = static_cast<double>(w.size() + c.size() + u.size());
  return {
      {"warm_ms_p50", "ms", percentile(w, 0.5), w.size()},
      {"warm_ms_p90", "ms", percentile(w, 0.9), w.size()},
      {"cold_ms_p50", "ms", percentile(c, 0.5), c.size()},
      {"cold_ms_p90", "ms", percentile(c, 0.9), c.size()},
      {"update_ms_p50", "ms", percentile(u, 0.5), u.size()},
      {"update_ms_p90", "ms", percentile(u, 0.9), u.size()},
      {"serve_qps", "1/s", busy_ms_ > 0 ? ops / (busy_ms_ * 1e-3) : 0,
       static_cast<std::size_t>(ops)},
  };
}

Metrics ServeLane::per_layer() const {
  const State& s = *s_;
  const auto med = [](const char* name, const char* unit,
                      const std::vector<double>& v) {
    return Metric{name, unit, median(v), v.size()};
  };
  Metrics out = {
      med("serve.parse_ms", "ms", s.parse_ms),
      med("serve.acquire_hit_ms", "ms", s.acquire_hit_ms),
      med("serve.acquire_miss_ms", "ms", s.acquire_miss_ms),
      med("serve.acquire_stale_ms", "ms", s.acquire_stale_ms),
      med("scenario.corpus_load_ms", "ms", s.corpus_load_ms),
      med("congest.engine_build_ms", "ms", s.engine_build_ms),
      med("serve.serialize_ms", "ms", s.serialize_ms),
      med("serve.response_kb", "KiB", s.response_kb),
      med("dynamic.advance_ms", "ms", s.advance_ms),
      med("dynamic.edges_changed", "count", s.edges_changed),
  };
  for (const QueryClass c : kClasses) {
    const auto ci = static_cast<std::size_t>(c);
    const std::string n = class_name(c);
    const double answers = std::max(s.answers[ci], 1.0);
    out.push_back(Metric{"scenario." + n + ".run_ms", "ms",
                         median(s.run_ms[ci]), s.run_ms[ci].size()});
    out.push_back(Metric{"serve." + n + ".service_ms", "ms",
                         median(s.service_ms[ci]), s.service_ms[ci].size()});
    out.push_back(Metric{"transport." + n + "_ms", "ms",
                         median(s.transport_ms[ci]),
                         s.transport_ms[ci].size()});
    out.push_back(Metric{"serve." + n + ".hit_ratio", "ratio",
                         s.hits[ci] / answers,
                         static_cast<std::size_t>(s.answers[ci])});
    out.push_back(Metric{"serve." + n + ".engine_reuse_ratio", "ratio",
                         s.reuses[ci] / answers,
                         static_cast<std::size_t>(s.answers[ci])});
  }
  out.push_back({"serve.corpus_loads", "count", s.delta.corpus_loads, 1});
  out.push_back({"serve.graph_builds", "count", s.delta.graph_builds, 1});
  out.push_back({"serve.stale_rebuilds", "count", s.delta.stale_rebuilds, 1});
  return out;
}

}  // namespace perfbench
