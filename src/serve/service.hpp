#pragma once
// The serving daemon's brain, factored away from any transport: feed it
// request lines, get response lines back. scenario_serve wires it to a
// stdio pipe or a TCP socket; tests drive it directly in-process.
//
// Three ideas compose here:
//
//  * Warm engines. Every query resolves through a serve::EnginePool — the
//    corpus is loaded (or generated) once per graph identity, and the
//    congest::Network with its adjacency-sized slot buffers is built once
//    and reused run over run (Network::run resets per-run state, so reuse
//    is bit-identical; responses report cache_hit / engine_reused).
//
//  * Windowed coalescing. Queries buffer until `window` of them are
//    pending (or a flush/shutdown arrives). Within a flushed window,
//    same-graph bfs queries collapse into ONE algo::BatchBfs execution and
//    same-graph sssp queries (on weighted specs) into ONE
//    apps::BatchBellmanFord execution on the pooled engine — the pipelined
//    batch primitives, whose per-query final answers are documented (and
//    tested) to be bit-identical to individual runs. Coalesced responses
//    share the batch execution's cost measures and say so via
//    `coalesced=k`. A query whose window-mates all errored or expired has
//    nothing to share and runs alone, through the path window=1 (the
//    default) takes for every query, which reproduces ScenarioRunner.
//
//  * Typed errors, always. A malformed line, unknown algorithm, bad spec or
//    out-of-range source becomes an ok=false response with an ErrorCode —
//    the daemon never dies on input and never leaks state from a failed
//    query into the next one.
//
// Telemetry: when enabled, each flushed window records into one recorder
// and the snapshot streams to the `metrics` sink as NDJSON (the PR-6
// write_metrics_ndjson format), one header line + per-round lines per
// flush — a live side channel, separate from the response stream.
//
// Thread-safety: none; one Service per connection/thread.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "congest/cancel.hpp"
#include "congest/telemetry.hpp"
#include "dynamic/scenario.hpp"
#include "scenario/runner.hpp"
#include "serve/engine_pool.hpp"
#include "serve/protocol.hpp"

namespace fc {
class ThreadPool;
}

namespace fc::serve {

struct ServiceOptions {
  /// Binary graph corpus shared with the CLI tools ("" = build in memory).
  std::string cache_dir;
  /// Warm (graph, Network) pairs kept by the LRU pool.
  std::size_t pool_capacity = 4;
  /// Queries buffered before a flush; 1 = serve immediately (no batching).
  std::size_t window = 1;
  /// Hard cap on one request line; longer lines get ErrorCode::kOversized.
  std::size_t max_request_bytes = 1 << 20;
  /// Per-flush telemetry recording mode (kOff = none); the service owns
  /// the recorder and hands it to every engine run of the flush.
  congest::TelemetryMode telemetry_mode = congest::TelemetryMode::kOff;
  /// NDJSON sink for per-flush telemetry (null = discard even when
  /// recording). See docs/OBSERVABILITY.md for the line format.
  std::ostream* metrics = nullptr;
  /// Thread pool for engine rounds; null selects ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Admission bound: a QUERY arriving while this many are already pending
  /// is shed with a typed `overloaded` error carrying retry_after_ms
  /// (control commands are never shed). 0 = unbounded (accept everything).
  std::size_t max_pending = 0;
  /// Per-flush time budget in milliseconds: every query of a flushed
  /// window gets an effective deadline of min(its own deadline_ms, flush
  /// start + budget), so one pathological query cannot hold the window
  /// hostage. 0 = no budget.
  std::uint64_t flush_budget_ms = 0;
};

struct ServiceStats {
  std::uint64_t requests = 0;   // lines submitted
  std::uint64_t responses = 0;  // response lines produced (incl. errors)
  std::uint64_t errors = 0;     // ok=false responses
  std::uint64_t flushes = 0;    // windows executed
  /// Live queries answered through a shared batch execution (coalesced
  /// >= 2); window-mates that errored before the run are not counted.
  std::uint64_t coalesced_queries = 0;
  /// Batch executions shared by >= 2 live queries.
  std::uint64_t coalesced_runs = 0;
  /// Accepted update commands, and the churn batches they applied.
  std::uint64_t updates = 0;
  std::uint64_t update_batches = 0;
  /// Lifetime edge churn across all dynamic scenarios served.
  std::uint64_t edges_deleted = 0;
  std::uint64_t edges_inserted = 0;
  /// Queries answered with the `deadline-exceeded` error (own deadline_ms
  /// or the flush budget), and engine rounds consumed by executions that
  /// were then cancelled — the work the deadlines wasted, not saved.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled_rounds = 0;
  /// Queries shed at admission by max_pending (`overloaded` responses).
  std::uint64_t shed = 0;
  /// Client connections dropped on a broken pipe (EPIPE/ECONNRESET) —
  /// bumped by the transport via note_client_drop(); the daemon survives.
  std::uint64_t sigpipe_drops = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions opts);

  /// Feed one request line (no trailing newline required). Returns the
  /// response lines this input released, in request order: an immediate
  /// error, a control response, or — when the window fills or a
  /// flush/shutdown command arrives — the whole flushed window.
  std::vector<std::string> submit(const std::string& line);

  /// Execute every pending query now (EOF / window timeout in the daemon).
  std::vector<std::string> flush();

  /// True once a shutdown command was accepted; the transport loop exits.
  bool shutdown_requested() const { return shutdown_; }

  /// Queries buffered in the current window. The transport polls this to
  /// flush when input goes idle instead of holding a part-filled window
  /// hostage until EOF.
  std::size_t pending() const { return pending_.size(); }

  const ServiceStats& stats() const { return stats_; }
  const PoolStats& pool_stats() const { return pool_.stats(); }
  EnginePool& engine_pool() { return pool_; }

  /// Transport hook: a client vanished mid-write (EPIPE/ECONNRESET). Only
  /// bookkeeping — the service carries no per-client state to clean up.
  void note_client_drop() { ++stats_.sigpipe_drops; }

  /// A stats line OUTSIDE the request/response ledger (not counted in
  /// `responses`): the graceful-drain farewell the transport emits after
  /// answering everything, so stats stay reconcilable with the queries.
  std::string stats_line() { return stats_response(0); }

 private:
  using Clock = congest::CancelToken::Clock;

  /// A response line and its outcome, handed to count() by the code that
  /// built it — the stats never re-read serialized output.
  struct Reply {
    std::string line;
    bool ok = false;
  };
  static Reply fail(std::uint64_t id, ErrorCode code,
                    const std::string& message,
                    std::uint64_t retry_after_ms = 0) {
    return {error_response(id, code, message, retry_after_ms), false};
  }

  struct PendingQuery {
    Query query;
    scenario::GraphSpec spec;  // parsed, pre-validated at submit time
    std::string pool_key;
    /// Absolute deadline resolved at ADMISSION from deadline_ms (queue
    /// wait counts against the budget); nullopt = none.
    std::optional<Clock::time_point> deadline;
  };

  Reply run_one(const PendingQuery& p,
                const std::optional<Clock::time_point>& deadline);
  /// Count + build one deadline-exceeded error. `cancelled_rounds` is the
  /// engine work a cancelled execution burned (0 when nothing ran).
  Reply deadline_exceeded_response(std::uint64_t id,
                                   std::uint64_t cancelled_rounds,
                                   const std::string& message);
  /// Dynamic specs resolve through their DynamicScenario, never a Registry
  /// build: get-or-create the scenario for `spec`'s pool key and, if the
  /// pool lacks the entry (first touch, or evicted), install the CURRENT
  /// batch's graph so the subsequent acquire() hits it. No-op for static
  /// specs. Throws std::invalid_argument when the spec fails to build.
  void prepare_dynamic(const scenario::GraphSpec& spec);
  /// Apply one update command: flush happens in submit(); this advances the
  /// scenario and installs the mutated graph into the pool.
  Reply update_response(const Request& req);
  /// Answer one coalesce group (>= 2 bfs, or >= 2 sssp on a weighted
  /// spec) with ONE batch execution on the pooled engine. Members with an
  /// out-of-range root or an expired deadline are answered with their
  /// error first; if fewer than two remain, the survivor's response stays
  /// empty and flush() serves it through run_one.
  void run_coalesced(
      const std::vector<std::size_t>& members,
      const std::vector<PendingQuery>& batch,
      const std::vector<std::optional<Clock::time_point>>& deadlines,
      std::vector<Reply>& responses);
  std::string stats_response(std::uint64_t id) const;
  /// Tally one reply in the stats (responses, and errors when !ok) and
  /// release its line.
  std::string count(Reply reply);

  ServiceOptions opts_;
  scenario::ScenarioRunner runner_;
  EnginePool pool_;
  /// Per-flush recorder target; points at a local recorder only while a
  /// flush is executing (null otherwise).
  congest::Telemetry* active_telemetry_ = nullptr;
  std::vector<PendingQuery> pending_;
  /// Dynamic-scenario state, keyed by pool key: the churn schedule position
  /// survives pool eviction (the pool holds graphs, this holds history).
  std::map<std::string, dynamic::DynamicScenario> scenarios_;
  ServiceStats stats_;
  bool shutdown_ = false;
};

}  // namespace fc::serve
