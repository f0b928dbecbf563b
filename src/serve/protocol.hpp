#pragma once
// Wire protocol of the scenario serving daemon (scenario_serve): newline-
// delimited JSON, one request line in, one response line out, over any
// byte-stream transport (stdin/stdout pipe, Unix/TCP socket).
//
// Query lines name a scenario exactly like the scenario_runner CLI does —
// the same spec grammar, the same algorithm names, the same config knobs:
//
//   {"id": 7, "spec": "rmat:n=128,deg=6,seed=7,weights=1..100",
//    "algo": "sssp", "root": 5, "payload": true}
//
// Accepted query fields (unknown keys are rejected — the fail-fast contract
// the spec parser and CLI flags already follow):
//
//   id           uint   echoed back verbatim (default: 0)
//   spec         string REQUIRED graph spec ("family:k=v,...")
//   algo         string REQUIRED algorithm name (scenario_runner --list)
//   root         uint   root node for the single-source workloads
//   seed         uint   scenario seed (message placement, random sources)
//   k            uint   broadcast message count (0 = one per node)
//   sources      uint   batch query count (0 = spec's sources= or 1)
//   source_mode  string "first" | "random" (overrides the spec's)
//   stretch      uint   weighted-apsp stretch parameter
//   max_rounds   uint   per-execution round cap
//   payload      bool   include typed results (distances/hops/mst_edges)
//   deadline_ms  uint   per-query time budget, measured from admission
//                       (0 = none); an exceeded deadline answers the typed
//                       "deadline-exceeded" error and cancels the engine
//                       run cooperatively (within one round)
//
// Control lines use {"cmd": ...}: "flush" forces the current batching
// window out early, "stats" reports pool/service counters, "shutdown"
// flushes and asks the daemon to exit. "update" advances a DYNAMIC spec's
// churn schedule (specs carrying churn=/updates=):
//
//   {"id": 9, "cmd": "update", "spec": "rmat:n=128,churn=0.05", "batches": 2}
//
// The daemon flushes pending queries first (they were submitted against the
// pre-update graph), applies the batches, and installs the mutated graph
// into the engine pool; the response reports the new batch index and the
// edge delta. Subsequent queries on the same spec run against the updated
// topology — with the dynamic weight rule (endpoint-keyed), never a plain
// rebuild.
//
// Responses echo the id and carry ok=true plus the ScenarioResult cost
// measures (and, on request, the typed payload: distances / hops with -1
// for unreachable, MST edges as [u, v] pairs), or ok=false with a typed
// error code and a human-readable message. Malformed input NEVER kills the
// daemon: every failure becomes an error response and the connection keeps
// serving.

#include <cstdint>
#include <string>

#include "scenario/runner.hpp"
#include "util/json.hpp"

namespace fc::serve {

/// Typed error taxonomy of the wire protocol. The daemon stays up for all
/// of them; the code tells the client whose fault it was.
enum class ErrorCode {
  kNone,
  kParse,        // the line is not valid JSON
  kBadRequest,   // valid JSON, invalid shape (missing/unknown/mistyped keys)
  kUnknownAlgo,  // algo not registered in the ScenarioRunner
  kBadSpec,      // spec failed to parse/build (unknown family, bad params)
  kBadSource,    // root/sources out of range for the resolved graph
  kOversized,    // request line exceeds the service's max_request_bytes
  kInternal,     // unexpected failure while running the scenario
  kDeadlineExceeded,  // the query's deadline_ms (or the service's flush
                      // budget) expired before an answer was produced
  kOverloaded,   // admission queue full; the response carries
                 // retry_after_ms as a client backoff hint
};

/// Wire name of an error code ("parse", "bad-request", ...).
const char* to_string(ErrorCode code);

/// One parsed query. The scenario knobs land directly in a ScenarioConfig —
/// the exact struct ScenarioRunner consumes, so a served query cannot drift
/// from what the CLI would run.
struct Query {
  std::uint64_t id = 0;
  std::string spec;
  std::string algo;
  scenario::ScenarioConfig cfg;
  bool want_payload = false;
  /// Per-query time budget in milliseconds, measured from admission; 0 =
  /// no deadline. The service converts it to an absolute steady-clock
  /// deadline at submit time, so queue wait counts against it.
  std::uint64_t deadline_ms = 0;
};

/// Daemon control commands (the {"cmd": ...} lines).
enum class Command { kNone, kFlush, kStats, kShutdown, kUpdate };

/// Outcome of parsing one request line.
struct Request {
  Command command = Command::kNone;  // kNone => `query` is meaningful
  Query query;
  /// kUpdate only: the dynamic spec to advance, and by how many batches.
  std::string update_spec;
  std::uint64_t update_batches = 1;
};

/// Parse one already-JSON-parsed request. Returns kNone and fills `error`
/// (+ message) on a malformed request; the caller builds the error response
/// with the id that could be salvaged from the line.
bool parse_request(const JsonValue& line, Request* out, ErrorCode* error,
                   std::string* message);

/// One response line. `result` and `payload` are meaningful when ok.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  ErrorCode error = ErrorCode::kNone;
  std::string message;
  scenario::ScenarioResult result;
  /// The graph came from the warm pool (no build) / the run reused the
  /// pooled engine's Network (no slot re-allocation).
  bool cache_hit = false;
  bool engine_reused = false;
  /// Number of window-mates this query was answered with in ONE batched
  /// execution (1 = ran individually). Coalesced responses share the batch
  /// run's cost measures; payloads stay bit-identical to individual runs.
  std::uint32_t coalesced = 1;
  bool has_payload = false;
  scenario::ScenarioPayload payload;
  /// kOverloaded only: suggested client backoff before retrying, derived
  /// from the service's current queue depth. Serialized when nonzero.
  std::uint64_t retry_after_ms = 0;
};

/// Render a response as one NDJSON line (no trailing newline). Unreachable
/// entries in distances/hops serialize as -1; MST edges as [u, v] arrays.
std::string serialize(const Response& r);

/// Shorthand for a typed failure line. `retry_after_ms` is serialized when
/// nonzero (the kOverloaded backoff hint).
std::string error_response(std::uint64_t id, ErrorCode code,
                           const std::string& message,
                           std::uint64_t retry_after_ms = 0);

}  // namespace fc::serve
