// Serving under duress: the chaos suite. Four layers of the robustness
// story, bottom up:
//
//  * Engine: a CancelToken (flag or deadline) truncates a run at a round
//    boundary — RunResult::cancelled set, `finished` false, the truncation
//    bit-identical across engines and pool sizes, and `undelivered`
//    reconciling exactly with the telemetry `delivered` column.
//  * Corpus: a bit-flipped or truncated `.fcg` cache file is QUARANTINED
//    to `<file>.bad` and regenerated — the recovered graph is bit-identical
//    to the original, and the evidence survives for post-mortem.
//  * Service: bounded admission sheds with the typed `overloaded` error
//    (control lines never shed), per-query deadline_ms and the per-flush
//    budget answer `deadline-exceeded`, and the duress counters reconcile.
//  * Daemon: a real forked scenario_serve survives SIGTERM mid-burst
//    (every accepted query answered, farewell stats line, exit 0), deadline
//    storms, half-closed and vanished clients (EPIPE, not SIGPIPE death),
//    and a corrupted corpus across a restart.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "congest/cancel.hpp"
#include "congest/network.hpp"
#include "congest/telemetry.hpp"
#include "dynamic/scenario.hpp"
#include "graph/generators.hpp"
#include "scenario/graph_io.hpp"
#include "scenario/runner.hpp"
#include "serve/engine_pool.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

// ------------------------------------------------------ engine cancel --

namespace fc::congest {
namespace {

/// Every node sends to every neighbor every round and is never done: the
/// run only ends by truncation. Optionally flags a CancelToken from the
/// round_started hook — the cancellation gate runs BEFORE round_started,
/// so flagging at round K lets rounds 0..K complete and stops the run at
/// the top of round K+1: RunResult::rounds == K+1, exactly.
class EndlessChatter : public Algorithm {
 public:
  EndlessChatter(CancelToken* token, std::uint64_t cancel_at)
      : token_(token), cancel_at_(cancel_at) {}
  std::string name() const override { return "endless-chatter"; }
  void start(Context& ctx) override { blast(ctx); }
  void step(Context& ctx) override {
    if (ctx.inbox().empty()) return;  // step contract: empty inbox no-op
    blast(ctx);
  }
  bool done() const override { return false; }
  void round_started(std::uint64_t round) override {
    if (token_ != nullptr && round == cancel_at_) token_->cancel();
  }

 private:
  static void blast(Context& ctx) {
    for (ArcId a = ctx.arc_begin(); a < ctx.arc_end(); ++a)
      ctx.send(a, {1, ctx.id(), 0});
  }
  CancelToken* token_;
  std::uint64_t cancel_at_;
};

std::uint64_t delivered_sum(const Telemetry& tele) {
  std::uint64_t sum = 0;
  for (const RoundSample& r : tele.series()) sum += r.delivered;
  return sum;
}

TEST(EngineCancel, FlagStopsAtRoundBoundaryOnBothEnginesAllPools) {
  const Graph g = gen::circulant(64, 2);
  const std::uint64_t kCancelAt = 5;
  std::uint64_t want_messages = 0, want_undelivered = 0;
  bool first = true;
  for (const bool dense : {true, false}) {
    SCOPED_TRACE(dense ? "dense" : "sparse");
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool tp(threads);
      Network net(g);
      CancelToken token;
      EndlessChatter alg(&token, kCancelAt);
      Telemetry tele(TelemetryMode::kRounds);
      RunOptions opts;
      opts.max_rounds = 1000;
      opts.force_dense = dense;
      opts.pool = &tp;
      opts.telemetry = &tele;
      opts.cancel = &token;
      const RunResult res = net.run(alg, opts);

      EXPECT_TRUE(res.cancelled);
      EXPECT_FALSE(res.finished);
      // Round-granular: rounds 0..kCancelAt completed, the gate fired at
      // the top of the next one — the engine stopped within one round.
      EXPECT_EQ(res.rounds, kCancelAt + 1);
      // The truncated run still reconciles: every message is either in a
      // materialized inbox (telemetry `delivered`) or in `undelivered`.
      EXPECT_EQ(res.messages - res.undelivered, delivered_sum(tele));
      EXPECT_GT(res.undelivered, 0u);  // the last round's sends never landed

      // Truncation is bit-identical across engines and pool sizes.
      if (first) {
        want_messages = res.messages;
        want_undelivered = res.undelivered;
        first = false;
      } else {
        EXPECT_EQ(res.messages, want_messages);
        EXPECT_EQ(res.undelivered, want_undelivered);
      }
    }
  }
}

TEST(EngineCancel, PreCancelledTokenRunsNothing) {
  const Graph g = gen::cycle(8);
  Network net(g);
  CancelToken token;
  token.cancel();
  EndlessChatter alg(nullptr, 0);
  RunOptions opts;
  opts.cancel = &token;
  const RunResult res = net.run(alg, opts);
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.finished);
  EXPECT_EQ(res.rounds, 0u);
  EXPECT_EQ(res.messages, 0u);
  EXPECT_EQ(res.undelivered, 0u);
}

TEST(EngineCancel, DeadlineTokenTruncatesEndlessRun) {
  const Graph g = gen::circulant(64, 2);
  Network net(g);
  CancelToken token = CancelToken::after(std::chrono::milliseconds(5));
  EndlessChatter alg(nullptr, 0);
  RunOptions opts;
  opts.cancel = &token;
  const RunResult res = net.run(alg, opts);
  EXPECT_TRUE(res.cancelled);
  EXPECT_FALSE(res.finished);
  EXPECT_LT(res.rounds, opts.max_rounds);

  // An already-expired deadline stops the run before round 0.
  Network net2(g);
  CancelToken expired = CancelToken::after(std::chrono::nanoseconds(0));
  EndlessChatter alg2(nullptr, 0);
  RunOptions opts2;
  opts2.cancel = &expired;
  const RunResult res2 = net2.run(alg2, opts2);
  EXPECT_TRUE(res2.cancelled);
  EXPECT_EQ(res2.rounds, 0u);
}

TEST(EngineCancel, MaxRoundsTruncationIsNotCancellation) {
  const Graph g = gen::cycle(8);
  Network net(g);
  CancelToken token;  // live, never expires
  EndlessChatter alg(nullptr, 0);
  RunOptions opts;
  opts.max_rounds = 3;
  opts.cancel = &token;
  const RunResult res = net.run(alg, opts);
  EXPECT_FALSE(res.cancelled);  // mutually exclusive flags: neither is set
  EXPECT_FALSE(res.finished);
  EXPECT_EQ(res.rounds, 3u);
}

TEST(EngineCancel, ScenarioLayerPropagatesCancellation) {
  scenario::ScenarioRunner runner;
  CancelToken token;
  token.cancel();
  scenario::ScenarioConfig cfg;
  cfg.cancel = &token;
  // bfs runs the engine directly; mst loops Boruvka phases; batch-sssp
  // drives the pipelined batch primitive — all must surface `cancelled`.
  for (const char* algo : {"bfs", "sssp", "mst", "batch-sssp"}) {
    SCOPED_TRACE(algo);
    const auto res = runner.run_spec(
        algo, "random_regular:n=64,d=4,seed=3,weights=1..50", cfg);
    EXPECT_TRUE(res.cancelled);
    EXPECT_FALSE(res.finished);
    EXPECT_EQ(res.rounds, 0u);
  }
  // weighted-apsp hands the token to its fast broadcast. Its rounds may
  // hold the Baswana-Sen spanner's, which are charged analytically before
  // the first engine run.
  const auto apsp = runner.run_spec(
      "weighted-apsp", "random_regular:n=64,d=4,seed=3,weights=1..50", cfg);
  EXPECT_TRUE(apsp.cancelled);
  EXPECT_FALSE(apsp.finished);
  // An un-expired token changes nothing.
  CancelToken live;
  cfg.cancel = &live;
  const auto ok = runner.run_spec(
      "bfs", "random_regular:n=64,d=4,seed=3,weights=1..50", cfg);
  EXPECT_TRUE(ok.finished);
  EXPECT_FALSE(ok.cancelled);
}

}  // namespace
}  // namespace fc::congest

// -------------------------------------------------- corpus quarantine --

namespace fc::scenario {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(offset);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
}

TEST(CorpusQuarantine, BitFlippedCacheIsQuarantinedAndRegenerated) {
  const GraphSpec spec = GraphSpec::parse("rmat:n=128,deg=6,seed=11");
  const std::string dir = fresh_dir("chaos_corpus_flip");
  bool from_cache = false;
  const Graph original = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  load_or_generate(spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);

  const std::string file = (fs::path(dir) / cache_file_name(spec)).string();
  ASSERT_TRUE(fs::exists(file));
  flip_byte(file, 20);

  const Graph recovered = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);  // checksum failed -> regenerated
  // The evidence survives for post-mortem, and the recovery is exact.
  EXPECT_TRUE(fs::exists(file + ".bad"));
  EXPECT_EQ(graph_checksum(recovered), graph_checksum(original));

  // The regenerated cache file is whole again and serves warm.
  const Graph warm = load_or_generate(spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(graph_checksum(warm), graph_checksum(original));
}

TEST(CorpusQuarantine, TruncatedCacheIsQuarantinedAndRegenerated) {
  const GraphSpec spec = GraphSpec::parse("rmat:n=128,deg=6,seed=12");
  const std::string dir = fresh_dir("chaos_corpus_trunc");
  bool from_cache = false;
  const Graph original = load_or_generate(spec, dir, &from_cache);

  const std::string file = (fs::path(dir) / cache_file_name(spec)).string();
  ASSERT_TRUE(fs::exists(file));
  fs::resize_file(file, fs::file_size(file) / 2);

  const Graph recovered = load_or_generate(spec, dir, &from_cache);
  EXPECT_FALSE(from_cache);
  EXPECT_TRUE(fs::exists(file + ".bad"));
  EXPECT_EQ(graph_checksum(recovered), graph_checksum(original));
  load_or_generate(spec, dir, &from_cache);
  EXPECT_TRUE(from_cache);
}

TEST(CorpusQuarantine, SaveBinaryNeverLeavesAPartialFile) {
  // save_binary writes to `.tmp` then renames: the final path either does
  // not exist or holds a complete, checksum-valid file. Overwriting an
  // existing cache goes through the same door.
  const std::string dir = fresh_dir("chaos_corpus_atomic");
  const std::string path = dir + "/atomic.fcg";
  const Graph a = gen::cycle(64);
  save_binary(a, path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(graph_checksum(load_binary(path)), graph_checksum(a));
  const Graph b = gen::circulant(96, 3);
  save_binary(b, path);  // overwrite in place, atomically
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(graph_checksum(load_binary(path)), graph_checksum(b));
}

}  // namespace
}  // namespace fc::scenario

// ------------------------------------------- pool + service under duress --

namespace fc::serve {
namespace {

namespace fs = std::filesystem;

const char* const kDynSpec = "rmat:n=128,deg=6,seed=7,churn=0.05,updates=2";
const char* const kSlowSpec = "path:n=60000";  // bfs needs ~n rounds

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string query_line(const std::string& spec, const std::string& algo,
                       const std::string& extra = "") {
  return "{\"spec\": " + quoted(spec) + ", \"algo\": " + quoted(algo) +
         (extra.empty() ? "" : ", " + extra) + "}";
}

TEST(PoolDuress, CapacityOneStaleRebuildRacesEviction) {
  // The nasty interleaving: a dynamic entry goes stale (install bumps the
  // graph revision), is then EVICTED by a capacity-1 pool before anyone
  // acquires it, and comes back via a fresh install. No stale Network may
  // survive any of it.
  EnginePool pool(1);
  const auto dyn = scenario::GraphSpec::parse(kDynSpec);
  const auto stat = scenario::GraphSpec::parse("harary:n=64,k=5");
  dynamic::DynamicScenario sc(dyn);

  pool.install(dyn, sc.graph());
  bool hit = true;
  pool.acquire(dyn, &hit);
  EXPECT_FALSE(hit);  // first acquire builds the Network

  sc.advance();
  pool.install(dyn, sc.graph());  // entry now stale (graph ahead of engine)
  pool.acquire(stat, &hit);       // capacity 1: evicts the stale entry
  EXPECT_EQ(pool.size(), 1u);
  // A dynamic spec must come back through install(), never a Registry
  // build — the eviction must not have weakened that refusal.
  EXPECT_THROW(pool.acquire(dyn), std::invalid_argument);

  pool.install(dyn, sc.graph());  // fresh slot for the CURRENT batch
  EnginePool::Entry& e = pool.acquire(dyn, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(e.network_revision, e.graph_revision);
  EXPECT_EQ(e.graph().edge_count(), sc.graph().edge_count());
  EXPECT_EQ(&e.network->graph(), &e.graph());
  pool.acquire(dyn, &hit);
  EXPECT_TRUE(hit);  // rebuilt once, warm again
}

TEST(PoolDuress, BitFlippedCorpusFileRecoversBitIdentical) {
  const std::string dir = [] {
    const fs::path d = fs::path(::testing::TempDir()) / "chaos_pool_corpus";
    fs::remove_all(d);
    fs::create_directories(d);
    return d.string();
  }();
  const auto spec = scenario::GraphSpec::parse("rmat:n=128,deg=6,seed=3");
  std::uint64_t want = 0;
  {
    EnginePool pool(2, dir);
    want = scenario::graph_checksum(pool.acquire(spec).graph());
    EXPECT_EQ(pool.stats().graph_builds, 1u);  // generated + cached
  }
  const std::string file =
      (fs::path(dir) / scenario::cache_file_name(spec)).string();
  ASSERT_TRUE(fs::exists(file));
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(24);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  EnginePool fresh(2, dir);
  EXPECT_EQ(scenario::graph_checksum(fresh.acquire(spec).graph()), want);
  EXPECT_TRUE(fs::exists(file + ".bad"));
  EXPECT_EQ(fresh.stats().graph_builds, 1u);  // regenerated, not loaded
  EXPECT_EQ(fresh.stats().corpus_loads, 0u);
}

TEST(ServeDuress, AdmissionBoundShedsQueriesButNeverControlLines) {
  ServiceOptions sopts;
  sopts.window = 8;
  sopts.max_pending = 2;
  Service service(std::move(sopts));
  const std::string spec = "thick_cycle:groups=8,width=4";
  EXPECT_TRUE(service.submit(query_line(spec, "bfs", "\"id\": 1")).empty());
  EXPECT_TRUE(service.submit(query_line(spec, "bfs", "\"id\": 2")).empty());

  const auto out = service.submit(query_line(spec, "bfs", "\"id\": 3"));
  ASSERT_EQ(out.size(), 1u);
  const JsonValue shed = parse_json(out.front());
  EXPECT_FALSE(shed.flag("ok"));
  EXPECT_EQ(shed.str("error", ""), "overloaded");
  EXPECT_EQ(shed.num("id"), 3);
  EXPECT_GE(shed.num("retry_after_ms"), 1);

  // Control lines are never shed: stats still answers at full queue.
  const auto stats_out = service.submit("{\"cmd\": \"stats\", \"id\": 4}");
  ASSERT_EQ(stats_out.size(), 1u);
  const JsonValue stats = parse_json(stats_out.front());
  EXPECT_TRUE(stats.flag("ok"));
  EXPECT_EQ(stats.find("stats")->num("pending"), 2);
  EXPECT_EQ(stats.find("stats")->num("shed"), 1);

  // The admitted queries still answer; the shed one stayed shed.
  const auto flushed = service.submit("{\"cmd\": \"flush\"}");
  ASSERT_EQ(flushed.size(), 2u);
  for (const std::string& r : flushed)
    EXPECT_TRUE(parse_json(r).flag("ok"));
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeDuress, DeadlineExpiredInQueueAnswersBeforeExecution) {
  ServiceOptions sopts;
  sopts.window = 4;
  Service service(std::move(sopts));
  const std::string spec = "thick_cycle:groups=8,width=4";
  // The deadline clock starts at ADMISSION: waiting in the window counts.
  EXPECT_TRUE(service
                  .submit(query_line(spec, "bfs",
                                     "\"id\": 1, \"deadline_ms\": 1"))
                  .empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto out = service.submit("{\"cmd\": \"flush\"}");
  ASSERT_EQ(out.size(), 1u);
  const JsonValue r = parse_json(out.front());
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "deadline-exceeded");
  EXPECT_NE(r.str("message", "").find("before execution"), std::string::npos);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
  EXPECT_EQ(service.stats().cancelled_rounds, 0u);  // nothing ever ran
  // The service keeps serving.
  EXPECT_TRUE(service.submit(query_line(spec, "bfs", "\"id\": 2")).empty());
  const auto ok = service.submit("{\"cmd\": \"flush\"}");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(parse_json(ok.front()).flag("ok"));
}

TEST(ServeDuress, DeadlineCancelsTheEngineMidRun) {
  Service service(ServiceOptions{});
  // The textbook broadcast of n messages over a 4k path runs 12 007 rounds
  // and sends 24M messages, so a 30ms deadline must be enforced by the
  // token cancelling the run, not by the pre-run or post-run checks.
  const auto out = service.submit(query_line(
      "path:n=4000", "broadcast", "\"id\": 1, \"deadline_ms\": 30"));
  ASSERT_EQ(out.size(), 1u);
  const JsonValue r = parse_json(out.front());
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "deadline-exceeded");
  EXPECT_NE(r.str("message", "").find("engine rounds"), std::string::npos);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(ServeDuress, DeadlineCancelsWeightedApspMidRun) {
  Service service(ServiceOptions{});
  // weighted-apsp over a 4k path runs 32 008 rounds, thousands of them in
  // its fast broadcast's leader election, so the deadline must cut the
  // broadcast through the token, like sssp's run.
  const auto out = service.submit(query_line(
      "path:n=4000,weights=1..9", "weighted-apsp",
      "\"id\": 1, \"deadline_ms\": 30"));
  ASSERT_EQ(out.size(), 1u);
  const JsonValue r = parse_json(out.front());
  EXPECT_FALSE(r.flag("ok"));
  EXPECT_EQ(r.str("error", ""), "deadline-exceeded");
  EXPECT_NE(r.str("message", "").find("engine rounds"), std::string::npos);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
  EXPECT_EQ(service.stats().errors, 1u);
}

TEST(ServeDuress, FlushBudgetBoundsTheWholeWindow) {
  ServiceOptions sopts;
  sopts.window = 2;
  sopts.flush_budget_ms = 1;
  Service service(std::move(sopts));
  EXPECT_TRUE(
      service.submit(query_line(kSlowSpec, "bfs", "\"id\": 1")).empty());
  const auto out =
      service.submit(query_line(kSlowSpec, "bfs", "\"id\": 2, \"root\": 1"));
  ASSERT_EQ(out.size(), 2u);
  // The first run eats the whole budget and is cancelled; the second is
  // already past the budget before it starts.
  for (const std::string& line : out) {
    const JsonValue r = parse_json(line);
    EXPECT_FALSE(r.flag("ok"));
    EXPECT_EQ(r.str("error", ""), "deadline-exceeded");
  }
  EXPECT_EQ(service.stats().deadline_exceeded, 2u);
}

TEST(ServeDuress, CoalescedWindowDropsOnlyExpiredMembers) {
  ServiceOptions sopts;
  sopts.window = 2;
  Service service(std::move(sopts));
  const std::string spec = "thick_cycle:groups=8,width=4";
  EXPECT_TRUE(service
                  .submit(query_line(spec, "bfs",
                                     "\"id\": 1, \"deadline_ms\": 1"))
                  .empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto out = service.submit(
      query_line(spec, "bfs", "\"id\": 2, \"root\": 1"));
  ASSERT_EQ(out.size(), 2u);
  const JsonValue dropped = parse_json(out[0]);
  EXPECT_FALSE(dropped.flag("ok"));
  EXPECT_EQ(dropped.str("error", ""), "deadline-exceeded");
  const JsonValue kept = parse_json(out[1]);
  EXPECT_TRUE(kept.flag("ok"));
  EXPECT_EQ(kept.num("coalesced"), 1);  // ran alone after the drop
}

TEST(ServeDuress, StatsLineIsOutsideTheResponseLedger) {
  Service service(ServiceOptions{});
  const auto out =
      service.submit(query_line("thick_cycle:groups=8,width=4", "bfs"));
  ASSERT_EQ(out.size(), 1u);
  service.note_client_drop();
  const JsonValue farewell = parse_json(service.stats_line());
  EXPECT_TRUE(farewell.flag("ok"));
  EXPECT_EQ(farewell.find("stats")->num("sigpipe_drops"), 1);
  // The farewell itself is NOT counted: responses still reconcile with the
  // one query the ledger saw.
  EXPECT_EQ(farewell.find("stats")->num("responses"), 1);
  EXPECT_EQ(service.stats().responses, 1u);
}

// ------------------------------------------------ forked daemon chaos --

/// A real scenario_serve child on stdio pipes. ctest runs from the build
/// directory, where the binary lives.
constexpr const char* kDaemonPath = "./scenario_serve";

struct Daemon {
  pid_t pid = -1;
  int in = -1;   // write end: the daemon's stdin
  int out = -1;  // read end: the daemon's stdout
};

Daemon spawn_daemon(std::vector<std::string> args) {
  int to_child[2] = {-1, -1}, from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]})
      ::close(fd);
    std::vector<char*> argv;
    std::string bin = kDaemonPath;
    argv.push_back(bin.data());
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(kDaemonPath, argv.data());
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  return {pid, to_child[1], from_child[0]};
}

void send_line(const Daemon& d, const std::string& line) {
  const std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(d.in, out.data() + off, out.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Blocking read of one '\n'-terminated line; false at EOF.
bool read_line(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const auto nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer, 0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      if (buffer.empty()) return false;
      line = std::move(buffer);
      buffer.clear();
      return true;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
}

std::vector<std::string> read_all_lines(int fd, std::string& buffer) {
  std::vector<std::string> lines;
  std::string line;
  while (read_line(fd, buffer, line)) lines.push_back(line);
  return lines;
}

/// Exit status: >= 0 is the exit code, negative is -signal.
int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -9999;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -9999;
}

#define SKIP_WITHOUT_DAEMON()                                        \
  if (::access(kDaemonPath, X_OK) != 0)                              \
    GTEST_SKIP() << "scenario_serve binary not found in CWD";

TEST(DaemonChaos, SigtermMidBurstAnswersEveryAcceptedQueryAndExitsZero) {
  SKIP_WITHOUT_DAEMON();
  Daemon d = spawn_daemon({"--window=64"});
  ASSERT_GT(d.pid, 0);
  std::string buffer, line;

  // Handshake: once stats answers, the daemon is reading its stdin.
  send_line(d, "{\"cmd\": \"stats\", \"id\": 99}");
  ASSERT_TRUE(read_line(d.out, buffer, line));
  EXPECT_TRUE(parse_json(line).flag("ok"));

  // A burst of slow queries, then SIGTERM while the daemon is (most
  // likely) mid-flush. Stdin stays open: the exit is signal-driven.
  const int kBurst = 6;
  for (int i = 1; i <= kBurst; ++i)
    send_line(d, query_line("path:n=20000", "bfs",
                            "\"id\": " + std::to_string(i)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_EQ(::kill(d.pid, SIGTERM), 0);

  const std::vector<std::string> lines = read_all_lines(d.out, buffer);
  EXPECT_EQ(wait_exit(d.pid), 0);
  ::close(d.in);
  ::close(d.out);

  // Every accepted query answered, in order, plus exactly one farewell
  // stats line outside the ledger.
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst) + 1);
  for (int i = 0; i < kBurst; ++i) {
    const JsonValue r = parse_json(lines[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.num("id"), i + 1);
    EXPECT_TRUE(r.flag("ok")) << r.str("message", "");
  }
  const JsonValue farewell = parse_json(lines.back());
  ASSERT_NE(farewell.find("stats"), nullptr);
  // The ledger: one handshake stats response + the burst; the farewell
  // itself is not counted.
  EXPECT_EQ(farewell.find("stats")->num("responses"), kBurst + 1);
}

TEST(DaemonChaos, DeadlineStormAnswersEveryQueryTyped) {
  SKIP_WITHOUT_DAEMON();
  Daemon d = spawn_daemon({"--window=1"});
  ASSERT_GT(d.pid, 0);
  const int kStorm = 10;
  for (int i = 1; i <= kStorm; ++i)
    send_line(d, query_line(kSlowSpec, "bfs",
                            "\"id\": " + std::to_string(i) +
                                ", \"deadline_ms\": 1"));
  ::close(d.in);
  std::string buffer;
  const std::vector<std::string> lines = read_all_lines(d.out, buffer);
  EXPECT_EQ(wait_exit(d.pid), 0);
  ::close(d.out);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kStorm));
  for (const std::string& l : lines) {
    const JsonValue r = parse_json(l);
    EXPECT_FALSE(r.flag("ok"));
    EXPECT_EQ(r.str("error", ""), "deadline-exceeded");
  }
}

TEST(DaemonChaos, HalfClosedClientStillGetsEveryAnswer) {
  SKIP_WITHOUT_DAEMON();
  Daemon d = spawn_daemon({"--window=8"});
  ASSERT_GT(d.pid, 0);
  for (int i = 1; i <= 3; ++i)
    send_line(d, query_line("thick_cycle:groups=8,width=4", "bfs",
                            "\"id\": " + std::to_string(i)));
  ::close(d.in);  // half-close: we still read
  std::string buffer;
  const std::vector<std::string> lines = read_all_lines(d.out, buffer);
  EXPECT_EQ(wait_exit(d.pid), 0);
  ::close(d.out);
  ASSERT_EQ(lines.size(), 3u);  // EOF flushed the part-filled window
  for (const std::string& l : lines)
    EXPECT_TRUE(parse_json(l).flag("ok"));
}

TEST(DaemonChaos, VanishedReaderIsEpipeNotSigpipeDeath) {
  SKIP_WITHOUT_DAEMON();
  Daemon d = spawn_daemon({"--window=1"});
  ASSERT_GT(d.pid, 0);
  ::close(d.out);  // nobody will ever read the response
  send_line(d, query_line("thick_cycle:groups=8,width=4", "bfs"));
  ::close(d.in);
  // The write hits EPIPE; the daemon must exit 0, not die on SIGPIPE
  // (which would report -SIGPIPE here).
  EXPECT_EQ(wait_exit(d.pid), 0);
}

TEST(DaemonChaos, StalledClientWithPartialLineStillDrainsOnSigterm) {
  SKIP_WITHOUT_DAEMON();
  Daemon d = spawn_daemon({"--window=4"});
  ASSERT_GT(d.pid, 0);
  // An unterminated fragment: never submitted, never answered.
  const std::string partial = "{\"spec\": \"thick_cy";
  ASSERT_EQ(::write(d.in, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(d.pid, SIGTERM), 0);
  std::string buffer;
  const std::vector<std::string> lines = read_all_lines(d.out, buffer);
  EXPECT_EQ(wait_exit(d.pid), 0);
  ::close(d.in);
  ::close(d.out);
  // Only the farewell stats line: the fragment was never accepted.
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_NE(parse_json(lines.front()).find("stats"), nullptr);
}

TEST(DaemonChaos, CorruptedCorpusRecoversBitIdenticalAcrossRestart) {
  SKIP_WITHOUT_DAEMON();
  const std::string dir = [] {
    const fs::path d = fs::path(::testing::TempDir()) / "chaos_daemon_corpus";
    fs::remove_all(d);
    fs::create_directories(d);
    return d.string();
  }();
  const std::string spec = "rmat:n=128,deg=6,seed=3";
  const std::string query = query_line(spec, "bfs", "\"id\": 1");

  auto serve_once = [&]() -> JsonValue {
    Daemon d = spawn_daemon({"--cache=" + dir});
    EXPECT_GT(d.pid, 0);
    send_line(d, query);
    send_line(d, "{\"cmd\": \"shutdown\"}");
    ::close(d.in);
    std::string buffer;
    const std::vector<std::string> lines = read_all_lines(d.out, buffer);
    EXPECT_EQ(wait_exit(d.pid), 0);
    ::close(d.out);
    EXPECT_GE(lines.size(), 1u);
    return parse_json(lines.empty() ? "{}" : lines.front());
  };

  const JsonValue before = serve_once();
  EXPECT_TRUE(before.flag("ok")) << before.str("message", "");

  const std::string file =
      (fs::path(dir) /
       scenario::cache_file_name(scenario::GraphSpec::parse(spec)))
          .string();
  ASSERT_TRUE(fs::exists(file));
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(16);
    byte = static_cast<char>(byte ^ 0x20);
    f.write(&byte, 1);
  }

  const JsonValue after = serve_once();
  EXPECT_TRUE(after.flag("ok")) << after.str("message", "");
  EXPECT_TRUE(fs::exists(file + ".bad"));  // quarantined, not overwritten
  // The regenerated graph serves bit-identically.
  for (const char* key :
       {"nodes", "edges", "rounds", "messages", "max_arc_congestion",
        "max_edge_congestion", "arc_p50", "arc_p99"})
    EXPECT_EQ(after.num(key), before.num(key)) << key;
}

}  // namespace
}  // namespace fc::serve
