#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "graph/properties.hpp"

namespace fc::serve {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownAlgo: return "unknown-algo";
    case ErrorCode::kBadSpec: return "bad-spec";
    case ErrorCode::kBadSource: return "bad-source";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kOverloaded: return "overloaded";
  }
  return "internal";
}

namespace {

bool fail(ErrorCode code, std::string message, ErrorCode* error,
          std::string* out_message) {
  *error = code;
  *out_message = std::move(message);
  return false;
}

/// A JSON number that is a nonnegative integer (the only numeric shape the
/// protocol uses). 2^53 caps well above every legal id/root/round count.
bool read_uint(const JsonValue& obj, const char* key, std::uint64_t* out,
               std::string* message) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;  // absent: keep the default
  if (v->type != JsonValue::Type::kNumber || v->number < 0 ||
      v->number != std::floor(v->number) || v->number > 9.007199254740992e15) {
    *message = std::string("field '") + key +
               "' must be a nonnegative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(v->number);
  return true;
}

bool read_string(const JsonValue& obj, const char* key, std::string* out,
                 std::string* message) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (v->type != JsonValue::Type::kString) {
    *message = std::string("field '") + key + "' must be a string";
    return false;
  }
  *out = v->string;
  return true;
}

constexpr const char* kQueryKeys[] = {
    "id",      "spec",        "algo",    "root",       "seed",
    "k",       "sources",     "source_mode", "stretch", "max_rounds",
    "payload", "deadline_ms"};

}  // namespace

bool parse_request(const JsonValue& line, Request* out, ErrorCode* error,
                   std::string* message) {
  if (!line.is_object())
    return fail(ErrorCode::kBadRequest, "request must be a JSON object",
                error, message);
  // Salvage the id first so even a malformed request errors with it.
  if (!read_uint(line, "id", &out->query.id, message))
    return fail(ErrorCode::kBadRequest, *message, error, message);

  if (line.find("cmd") != nullptr) {
    std::string cmd;
    if (!read_string(line, "cmd", &cmd, message))
      return fail(ErrorCode::kBadRequest, *message, error, message);
    // "update" is the one control command with arguments of its own.
    const bool is_update = cmd == "update";
    for (const auto& [key, _] : line.fields) {
      if (key == "cmd" || key == "id") continue;
      if (is_update && (key == "spec" || key == "batches")) continue;
      return fail(ErrorCode::kBadRequest,
                  is_update
                      ? "update accepts only 'cmd', 'id', 'spec' and "
                        "'batches', got '" + key + "'"
                      : "control line accepts only 'cmd' and 'id', got '" +
                            key + "'",
                  error, message);
    }
    if (cmd == "flush") {
      out->command = Command::kFlush;
    } else if (cmd == "stats") {
      out->command = Command::kStats;
    } else if (cmd == "shutdown") {
      out->command = Command::kShutdown;
    } else if (is_update) {
      out->command = Command::kUpdate;
      if (!read_string(line, "spec", &out->update_spec, message) ||
          !read_uint(line, "batches", &out->update_batches, message))
        return fail(ErrorCode::kBadRequest, *message, error, message);
      if (out->update_spec.empty())
        return fail(ErrorCode::kBadRequest, "update requires 'spec'", error,
                    message);
      if (out->update_batches == 0)
        return fail(ErrorCode::kBadRequest, "field 'batches' must be >= 1",
                    error, message);
    } else {
      return fail(ErrorCode::kBadRequest,
                  "unknown cmd '" + cmd +
                      "'; known: flush, stats, shutdown, update",
                  error, message);
    }
    return true;
  }

  // The fail-fast contract the spec parser and the CLIs already follow: an
  // unknown key is a probable typo, not something to silently ignore.
  for (const auto& [key, _] : line.fields) {
    bool known = false;
    for (const char* k : kQueryKeys) known = known || key == k;
    if (!known)
      return fail(ErrorCode::kBadRequest, "unknown field '" + key + "'",
                  error, message);
  }

  Query& q = out->query;
  if (!read_string(line, "spec", &q.spec, message) ||
      !read_string(line, "algo", &q.algo, message))
    return fail(ErrorCode::kBadRequest, *message, error, message);
  if (q.spec.empty())
    return fail(ErrorCode::kBadRequest, "field 'spec' is required", error,
                message);
  if (q.algo.empty())
    return fail(ErrorCode::kBadRequest, "field 'algo' is required", error,
                message);

  std::uint64_t root = 0, stretch = q.cfg.stretch_k;
  if (!read_uint(line, "seed", &q.cfg.seed, message) ||
      !read_uint(line, "k", &q.cfg.k, message) ||
      !read_uint(line, "root", &root, message) ||
      !read_uint(line, "sources", &q.cfg.sources, message) ||
      !read_uint(line, "stretch", &stretch, message) ||
      !read_uint(line, "max_rounds", &q.cfg.max_rounds, message) ||
      !read_uint(line, "deadline_ms", &q.deadline_ms, message))
    return fail(ErrorCode::kBadRequest, *message, error, message);
  // Both land in 32-bit fields: a wider value must not wrap to another.
  if (root > std::numeric_limits<NodeId>::max())
    return fail(ErrorCode::kBadSource,
                "root " + std::to_string(root) + " exceeds the largest node id",
                error, message);
  if (stretch > std::numeric_limits<std::uint32_t>::max())
    return fail(ErrorCode::kBadRequest,
                "field 'stretch' must be below 2^32, got " +
                    std::to_string(stretch),
                error, message);
  q.cfg.root = static_cast<NodeId>(root);
  q.cfg.stretch_k = static_cast<std::uint32_t>(stretch);

  std::string source_mode;
  if (!read_string(line, "source_mode", &source_mode, message))
    return fail(ErrorCode::kBadRequest, *message, error, message);
  if (source_mode == "first")
    q.cfg.source_mode = scenario::SourceMode::kFirst;
  else if (source_mode == "random")
    q.cfg.source_mode = scenario::SourceMode::kRandom;
  else if (!source_mode.empty())
    return fail(ErrorCode::kBadRequest,
                "field 'source_mode' must be 'first' or 'random', got '" +
                    source_mode + "'",
                error, message);

  if (const JsonValue* v = line.find("payload")) {
    if (v->type != JsonValue::Type::kBool)
      return fail(ErrorCode::kBadRequest, "field 'payload' must be a bool",
                  error, message);
    q.want_payload = v->boolean;
  }
  return true;
}

namespace {

/// Distances/hops with an out-of-band "unreachable" sentinel serialize as
/// -1: every reachable value fits a double exactly (weights are < 2^32 and
/// paths are < 2^21 edges), while kInfWeight / algo::kUnreached would not.
void distance_array(JsonWriter& w, const std::vector<Weight>& dist) {
  w.begin_array();
  for (const Weight d : dist)
    w.value(d >= kInfWeight ? std::int64_t{-1} : static_cast<std::int64_t>(d));
  w.end_array();
}

void hop_array(JsonWriter& w, const std::vector<std::uint32_t>& hops) {
  w.begin_array();
  for (const std::uint32_t h : hops)
    w.value(h == kUnreached ? std::int64_t{-1} : std::int64_t{h});
  w.end_array();
}

}  // namespace

std::string serialize(const Response& r) {
  JsonWriter w;
  w.begin_object().field("id", r.id).field("ok", r.ok);
  if (!r.ok) {
    w.field("error", to_string(r.error)).field("message", r.message);
    if (r.retry_after_ms > 0) w.field("retry_after_ms", r.retry_after_ms);
    return w.end_object().take();
  }
  const scenario::ScenarioResult& res = r.result;
  w.field("graph", res.graph)
      .field("algo", res.algo)
      .field("nodes", std::uint64_t{res.nodes})
      .field("edges", std::uint64_t{res.edges})
      .field("rounds", res.rounds)
      .field("messages", res.messages)
      .field("max_arc_congestion", res.max_arc_congestion)
      .field("max_edge_congestion", res.max_edge_congestion)
      .field("arc_p50", res.arc_p50)
      .field("arc_p99", res.arc_p99)
      .field("finished", res.finished)
      .field("note", res.note)
      .field("cache_hit", r.cache_hit)
      .field("engine_reused", r.engine_reused)
      .field("coalesced", r.coalesced);
  if (r.has_payload) {
    w.key("sources").begin_array();
    for (const NodeId s : r.payload.sources) w.value(std::uint64_t{s});
    w.end_array();
    if (!r.payload.distances.empty()) {
      w.key("distances").begin_array();
      for (const auto& d : r.payload.distances) distance_array(w, d);
      w.end_array();
    }
    if (!r.payload.hops.empty()) {
      w.key("hops").begin_array();
      for (const auto& h : r.payload.hops) hop_array(w, h);
      w.end_array();
    }
    if (!r.payload.mst_edges.empty()) {
      w.key("mst_edges").begin_array();
      for (const auto& [u, v] : r.payload.mst_edges)
        w.begin_array().value(std::uint64_t{u}).value(std::uint64_t{v})
            .end_array();
      w.end_array();
    }
  }
  return w.end_object().take();
}

std::string error_response(std::uint64_t id, ErrorCode code,
                           const std::string& message,
                           std::uint64_t retry_after_ms) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = code;
  r.message = message;
  r.retry_after_ms = retry_after_ms;
  return serialize(r);
}

}  // namespace fc::serve
