#pragma once
// Warm engine pool of the serving daemon: a small LRU cache mapping graph
// identities to fully-built (graph, congest::Network) pairs, so repeat
// queries skip BOTH the expensive part (generating or loading the topology)
// and the allocation-heavy part (the Network's adjacency-sized slot and
// arena buffers, sized 2x arcs and built only in its constructor).
//
// The pool key is the CANONICAL spec with the non-topology parameters
// stripped (`sources=`, `source_mode=` — they pick queries, not graphs) but
// `weights=` kept: weights change the WeightedGraph a weighted algorithm
// runs on, so differently-weighted twins must not share an entry. Because
// the key is canonical, two spellings of the same scenario ("rmat:n=64" vs
// "rmat:deg=8,n=64") share one warm engine.
//
// When a corpus directory is configured, topology builds go through
// scenario::load_or_generate(_weighted) — the daemon populates/reuses the
// same binary cache the CLI tools do; without one it builds via the
// Registry directly. Either way the pool holds the result for `capacity`
// distinct graphs and evicts least-recently-used beyond that.
//
// Entries live in a std::list: acquire() splices the hit to the front
// without moving the element, so Graph/Network addresses stay stable for
// the entry's whole pool lifetime — the serve layer hands &entry.network to
// runs and the scenario layer compares that Network's bound graph address.
//
// DYNAMIC graphs (scenario/dynamic churn): a graph that mutates between
// batches is fed to the pool through install(), which replaces the entry's
// graph IN PLACE and bumps its graph_revision. The warm Network is then
// STALE — its buffers are sized for the old topology, and because the new
// graph reuses the old one's storage, the scenario layer's address check
// (&network->graph() == &g) would PASS and happily serve wrong results.
// acquire() therefore re-checks network_revision against graph_revision on
// every hit and rebuilds the engine before handing the entry out
// (PoolStats::stale_rebuilds): a mutated entry always misses the warm
// engine, never serves it. Dynamic specs must come in via install() — an
// acquire() miss on one throws rather than Registry-building, because
// dynamic weights are endpoint-keyed (dynamic_weight), not edge-id-keyed
// (apply_spec_weights), and a plain build would silently disagree.
//
// Thread-safety: none (the daemon serves one connection from one thread).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "scenario/spec.hpp"

namespace fc::serve {

/// Pool effectiveness counters, exposed over the protocol's stats command
/// and asserted by the warm-reuse tests.
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Topologies built by a generator this process (cache misses that also
  /// missed the corpus).
  std::uint64_t graph_builds = 0;
  /// Topologies reloaded from the binary corpus.
  std::uint64_t corpus_loads = 0;
  /// Graphs pushed in via install() (dynamic-scenario batches).
  std::uint64_t installs = 0;
  /// Warm Networks discarded and rebuilt because their entry's graph was
  /// mutated by install() after the Network was built.
  std::uint64_t stale_rebuilds = 0;
};

class EnginePool {
 public:
  /// One warm graph + engine. Exactly one of `plain`/`weighted` is engaged
  /// (weighted iff the spec carries `weights=`); `network` is always bound
  /// to graph().
  struct Entry {
    std::string key;          // canonical spec minus sources/source_mode
    scenario::GraphSpec spec; // the parsed canonical (key) spec
    std::optional<Graph> plain;
    std::optional<WeightedGraph> weighted;
    std::unique_ptr<congest::Network> network;
    /// Mutation clock: install() bumps graph_revision; acquire() rebuilds
    /// `network` whenever network_revision lags and then catches it up. An
    /// entry is handed out only with the two equal.
    std::uint64_t graph_revision = 0;
    std::uint64_t network_revision = 0;

    bool is_weighted() const { return weighted.has_value(); }
    const Graph& graph() const {
      return weighted ? weighted->graph() : *plain;
    }
    const WeightedGraph& weighted_graph() const { return *weighted; }
  };

  /// `capacity` >= 1 warm graphs; `cache_dir` (optional) is the binary
  /// corpus directory shared with the CLI tools.
  explicit EnginePool(std::size_t capacity, std::string cache_dir = "");

  /// Resolve `spec` to a warm entry: LRU hit, or build (corpus-backed when
  /// configured) + evict beyond capacity. The reference stays valid until
  /// the entry is evicted — i.e. for at least the next `capacity - 1`
  /// acquires of OTHER keys. `cache_hit` (optional) reports which path ran.
  /// Throws std::invalid_argument for a bad spec (unknown family/params).
  Entry& acquire(const scenario::GraphSpec& spec, bool* cache_hit = nullptr);

  /// The pool key `spec` resolves to (exposed for the serve layer's
  /// coalescing groups and for tests).
  static std::string pool_key(const scenario::GraphSpec& spec);

  /// Pool lookup without building: the entry `spec`'s key currently maps
  /// to, or nullptr. Touches neither the LRU order nor the hit/miss stats —
  /// the serve layer uses this to decide whether a dynamic scenario must
  /// (re)install its current graph before acquiring.
  Entry* find(const scenario::GraphSpec& spec);

  /// Install (or replace) the graph behind `spec`'s pool key — the dynamic
  /// scenario path, where the caller owns graph evolution and the Registry
  /// must NOT be consulted. Replaces the graph in place, bumps the entry's
  /// graph_revision, and leaves the (now stale) Network for the next
  /// acquire() to rebuild. The entry moves to the front of the LRU; normal
  /// eviction applies. The weighted overload is for specs with `weights=`.
  Entry& install(const scenario::GraphSpec& spec, Graph g);
  Entry& install(const scenario::GraphSpec& spec, WeightedGraph g);

  const PoolStats& stats() const { return stats_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  /// Find-or-create the LRU slot for `spec`'s key (no graph build).
  Entry& install_slot(const scenario::GraphSpec& spec);

  std::size_t capacity_;
  std::string cache_dir_;
  std::list<Entry> entries_;  // front = most recently used
  PoolStats stats_;
};

}  // namespace fc::serve
