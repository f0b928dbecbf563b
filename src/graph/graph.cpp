#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace fc {

namespace {

// Inputs with at least this many edges (and n <= 4m) build on the
// process-global pool; smaller or ultra-sparse ones on the calling thread,
// where the pool's O(threads * n) scratch and hand-offs would dominate.
constexpr std::size_t kParallelEdgeThreshold = std::size_t{1} << 15;

// Validation outcomes of the counting pass. Each worker records the first
// invalid edge of its chunk, and the calling thread throws the code of the
// lowest worker that has one: that is the first invalid edge in input order,
// whatever the pool size. (parallel_chunks would forward a thrown exception,
// but whichever chunk threw first in time would win.)
enum class EdgeError : std::uint8_t { kNone = 0, kSelfLoop, kOutOfRange };

EdgeError check_edge(NodeId n, NodeId u, NodeId v) {
  if (u == v) return EdgeError::kSelfLoop;
  if (u >= n || v >= n) return EdgeError::kOutOfRange;
  return EdgeError::kNone;
}

[[noreturn]] void throw_edge_error(EdgeError err) {
  switch (err) {
    case EdgeError::kSelfLoop:
      throw std::invalid_argument("Graph: self-loop");
    default:
      throw std::invalid_argument("Graph: endpoint >= n");
  }
}

}  // namespace

Graph Graph::from_edges(NodeId n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  return from_edges(n, std::span<const std::pair<NodeId, NodeId>>(edges));
}

Graph Graph::from_edges(NodeId n,
                        std::span<const std::pair<NodeId, NodeId>> edges) {
  if (edges.size() >= kParallelEdgeThreshold && n <= 4 * edges.size())
    return from_edges(n, edges, ThreadPool::global());
  // A 1-thread pool runs each pass inline and takes no lock, so concurrent
  // small builds never serialize on it.
  static ThreadPool caller_thread(1);
  return from_edges(n, edges, caller_thread);
}

Graph Graph::from_edges_serial(
    NodeId n, std::span<const std::pair<NodeId, NodeId>> edges) {
  // Serial reference path. from_edges must produce a bit-identical CSR and
  // the same error; tests/test_parallel_csr.cpp holds it to that.
  for (const auto& [u, v] : edges)
    if (const EdgeError err = check_edge(n, u, v); err != EdgeError::kNone)
      throw_edge_error(err);

  Graph g;
  g.n_ = n;
  const auto m = static_cast<EdgeId>(edges.size());
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);
  g.edge_arc_.assign(m, kInvalidArc);

  std::vector<std::uint32_t> deg(n, 0);
  {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(edges.size() * 2);
    for (EdgeId e = 0; e < m; ++e) {
      auto [u, v] = edges[e];
      if (u > v) std::swap(u, v);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
      if (!seen.insert(key).second)
        throw std::invalid_argument("Graph: duplicate edge (simple graphs only)");
      g.edge_u_[e] = u;
      g.edge_v_[e] = v;
      ++deg[u];
      ++deg[v];
    }
  }

  g.offsets_.resize(n + 1);
  g.offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) g.offsets_[v + 1] = g.offsets_[v] + deg[v];

  const ArcId arcs = 2 * m;
  g.arc_head_.resize(arcs);
  g.arc_tail_.resize(arcs);
  g.arc_rev_.resize(arcs);
  g.arc_edge_.resize(arcs);

  std::vector<ArcId> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const NodeId u = g.edge_u_[e];
    const NodeId v = g.edge_v_[e];
    const ArcId a_uv = cursor[u]++;
    const ArcId a_vu = cursor[v]++;
    g.arc_head_[a_uv] = v;
    g.arc_tail_[a_uv] = u;
    g.arc_head_[a_vu] = u;
    g.arc_tail_[a_vu] = v;
    g.arc_rev_[a_uv] = a_vu;
    g.arc_rev_[a_vu] = a_uv;
    g.arc_edge_[a_uv] = e;
    g.arc_edge_[a_vu] = e;
    g.edge_arc_[e] = a_uv;
  }
  return g;
}

Graph Graph::from_edges(NodeId n,
                        std::span<const std::pair<NodeId, NodeId>> edges,
                        ThreadPool& pool) {
  Graph g;
  g.n_ = n;
  const auto m = static_cast<EdgeId>(edges.size());
  g.edge_u_.resize(m);
  g.edge_v_.resize(m);
  g.edge_arc_.assign(m, kInvalidArc);

  const std::size_t threads = pool.size();

  // Pass 1 — validate, canonicalize (u < v), and count degrees into one
  // histogram per worker. parallel_chunks assigns worker w the fixed range
  // [w*ceil(m/T), ...), so hist[w] covers a contiguous, ordered slice of the
  // edge list — the property the deterministic scatter below builds on.
  std::vector<std::vector<std::uint32_t>> hist(
      threads, std::vector<std::uint32_t>(n, 0));
  std::vector<EdgeError> error(threads, EdgeError::kNone);
  pool.parallel_chunks(m, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    auto& deg = hist[w];
    for (std::size_t e = begin; e < end; ++e) {
      auto [u, v] = edges[e];
      if (const EdgeError err = check_edge(n, u, v); err != EdgeError::kNone) {
        error[w] = err;
        return;
      }
      if (u > v) std::swap(u, v);
      g.edge_u_[e] = u;
      g.edge_v_[e] = v;
      ++deg[u];
      ++deg[v];
    }
  });
  for (const EdgeError err : error)
    if (err != EdgeError::kNone) throw_edge_error(err);

  // Pass 2 — per-node exclusive scan across workers: hist[w][v] becomes the
  // number of incident edges v has in chunks before w; deg_total holds the
  // full degree. Parallel over nodes (each node's column is private).
  std::vector<std::uint32_t> deg_total(n, 0);
  pool.parallel_chunks(n, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      std::uint32_t running = 0;
      for (std::size_t w = 0; w < threads; ++w) {
        const std::uint32_t count = hist[w][v];
        hist[w][v] = running;
        running += count;
      }
      deg_total[v] = running;
    }
  });

  // Offsets: a serial O(n) scan (the passes around it dominate).
  g.offsets_.resize(n + 1);
  g.offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v)
    g.offsets_[v + 1] = g.offsets_[v] + deg_total[v];

  // Pass 3 — turn the per-worker scans into absolute CSR cursors.
  pool.parallel_chunks(n, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    for (std::size_t v = begin; v < end; ++v)
      for (std::size_t w = 0; w < threads; ++w) hist[w][v] += g.offsets_[v];
  });

  const ArcId arcs = 2 * m;
  g.arc_head_.resize(arcs);
  g.arc_tail_.resize(arcs);
  g.arc_rev_.resize(arcs);
  g.arc_edge_.resize(arcs);

  // Pass 4 — scatter. Worker w walks the SAME chunk as in pass 1 in input
  // order, so edge e lands at offsets[u] + #(earlier input edges incident to
  // u): exactly the serial layout, for every thread count. No two workers
  // share a cursor, so the pass is data-race-free by construction.
  pool.parallel_chunks(m, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    auto& cursor = hist[w];
    for (std::size_t e = begin; e < end; ++e) {
      const NodeId u = g.edge_u_[e];
      const NodeId v = g.edge_v_[e];
      const ArcId a_uv = cursor[u]++;
      const ArcId a_vu = cursor[v]++;
      g.arc_head_[a_uv] = v;
      g.arc_tail_[a_uv] = u;
      g.arc_head_[a_vu] = u;
      g.arc_tail_[a_vu] = v;
      g.arc_rev_[a_uv] = a_vu;
      g.arc_rev_[a_vu] = a_uv;
      g.arc_edge_[a_uv] = static_cast<EdgeId>(e);
      g.arc_edge_[a_vu] = static_cast<EdgeId>(e);
      g.edge_arc_[e] = a_uv;
    }
  });

  // Pass 5 — duplicate detection, linear and parallel over nodes. A
  // duplicate edge {u, v} shows up as v twice in u's adjacency. Each
  // worker's cursor array is dead after the scatter and becomes its `seen`
  // stamp array: seen[x] == v means x already appeared among v's neighbours.
  std::vector<std::uint8_t> dup(threads, 0);
  pool.parallel_chunks(n, [&](std::size_t w, std::size_t begin,
                              std::size_t end) {
    auto& seen = hist[w];
    std::fill(seen.begin(), seen.end(), kInvalidNode);
    for (std::size_t v = begin; v < end; ++v)
      for (const NodeId x : g.neighbors(static_cast<NodeId>(v))) {
        if (seen[x] == v) {
          dup[w] = 1;
          return;
        }
        seen[x] = static_cast<NodeId>(v);
      }
  });
  for (const std::uint8_t d : dup)
    if (d)
      throw std::invalid_argument("Graph: duplicate edge (simple graphs only)");
  return g;
}

Graph Graph::disjoint_union(std::span<const Graph* const> blocks) {
  Graph g;
  EdgeId m = 0;
  for (const Graph* b : blocks) {
    g.n_ += b->n_;
    m += b->edge_count();
  }
  g.offsets_.resize(std::size_t{g.n_} + 1);
  for (auto* a : {&g.arc_head_, &g.arc_tail_, &g.arc_rev_, &g.arc_edge_})
    a->resize(std::size_t{2} * m);
  for (auto* a : {&g.edge_u_, &g.edge_v_, &g.edge_arc_}) a->resize(m);
  // Copy `count` ids of `from` to `to[at...]`, each shifted by `shift`.
  const auto copy = [](const std::vector<std::uint32_t>& from,
                       std::size_t count, std::vector<std::uint32_t>& to,
                       std::size_t at, std::uint32_t shift) {
    std::transform(from.begin(), from.begin() + count, to.begin() + at,
                   [shift](std::uint32_t x) { return x + shift; });
  };
  NodeId node_base = 0;
  EdgeId edge_base = 0;
  for (const Graph* b : blocks) {
    const ArcId arc_base = 2 * edge_base;
    const EdgeId mb = b->edge_count();
    // A block's offsets_ end with its arc count, which is the next block's
    // first offset, so only its first n entries are copied.
    copy(b->offsets_, b->n_, g.offsets_, node_base, arc_base);
    copy(b->arc_head_, 2 * mb, g.arc_head_, arc_base, node_base);
    copy(b->arc_tail_, 2 * mb, g.arc_tail_, arc_base, node_base);
    copy(b->arc_rev_, 2 * mb, g.arc_rev_, arc_base, arc_base);
    copy(b->arc_edge_, 2 * mb, g.arc_edge_, arc_base, edge_base);
    copy(b->edge_u_, mb, g.edge_u_, edge_base, node_base);
    copy(b->edge_v_, mb, g.edge_v_, edge_base, node_base);
    copy(b->edge_arc_, mb, g.edge_arc_, edge_base, arc_base);
    node_base += b->n_;
    edge_base += mb;
  }
  g.offsets_[g.n_] = 2 * m;
  return g;
}

ArcId Graph::find_arc(NodeId v, NodeId w) const {
  for (ArcId a = arc_begin(v); a < arc_end(v); ++a)
    if (arc_head_[a] == w) return a;
  return kInvalidArc;
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> out(edge_count());
  for (EdgeId e = 0; e < edge_count(); ++e) out[e] = {edge_u_[e], edge_v_[e]};
  return out;
}

std::string Graph::describe() const {
  std::uint32_t dmin = n_ ? degree(0) : 0, dmax = dmin;
  for (NodeId v = 0; v < n_; ++v) {
    dmin = std::min(dmin, degree(v));
    dmax = std::max(dmax, degree(v));
  }
  std::ostringstream os;
  os << "Graph(n=" << n_ << ", m=" << edge_count() << ", deg=[" << dmin << ","
     << dmax << "])";
  return os.str();
}

Subgraph make_subgraph(const Graph& parent, std::span<const EdgeId> keep) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(keep.size());
  Subgraph out;
  out.parent_edge.reserve(keep.size());
  for (EdgeId e : keep) {
    edges.emplace_back(parent.edge_u(e), parent.edge_v(e));
    out.parent_edge.push_back(e);
  }
  out.graph = Graph::from_edges(parent.node_count(), edges);
  return out;
}

}  // namespace fc
