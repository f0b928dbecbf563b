// Distributed MST (Borůvka/GHS fragment merging, apps/mst): phase counts
// track ceil(log2 n), per-phase cost splits into the 2m-message fragment
// announce plus the fragment-tree aggregations, which run as convergecasts
// (algo::ForestEcho, at most two messages per tree edge). "cc merge" is
// the aggregation bucket. The edge set matches the serial Kruskal
// reference exactly (unique MOEs under the (weight, EdgeId) key order).

#include "bench_common.hpp"

#include <cmath>

#include "apps/mst.hpp"

namespace fc::bench {
namespace {

Table mst_table() {
  return Table({"graph", "n", "m", "phases", "lg n", "cc rounds", "cc msgs",
                "cc merge", "kruskal"});
}

void mst_row(Table& table, const std::string& name, const WeightedGraph& g) {
  const auto cc = apps::distributed_mst(g);
  const bool match = cc.tree_edges == kruskal_msf(g);
  const NodeId n = g.graph().node_count();
  table.add_row({name, Table::num(std::size_t{n}),
                 Table::num(std::size_t{g.graph().edge_count()}),
                 Table::num(std::size_t{cc.phases}),
                 Table::num(std::ceil(std::log2(std::max<NodeId>(2, n))), 0),
                 Table::num(std::size_t{cc.rounds}),
                 Table::num(std::size_t{cc.messages}),
                 Table::num(std::size_t{cc.merge_messages}),
                 match ? "match" : "MISMATCH"});
}

void experiment_m1() {
  banner("M1 / Boruvka phase scaling",
         "fragment count at least halves per phase: phases <= ceil(lg n) "
         "across sizes; per-phase messages ~ 2m (the fragment announce) "
         "plus the convergecast aggregation bucket.");
  Table table = mst_table();
  Rng seed_rng(61);
  for (const NodeId n : {64u, 256u, 1024u}) {
    Rng rng = seed_rng.fork(n);
    mst_row(table, "random_regular d=8 n=" + std::to_string(n),
            gen::with_hashed_weights(gen::random_regular(n, 8, rng), 1, 1000,
                                     n));
  }
  table.print(std::cout);
}

void experiment_m1_families() {
  banner("M1b / MST across connectivity regimes",
         "same n, different lambda/delta regimes: deep bottleneck families "
         "need the most phases and the longest aggregations.");
  Table table = mst_table();
  mst_row(table, "thick_path:groups=32,width=8",
          gen::with_hashed_weights(gen::thick_path(32, 8), 1, 100, 7));
  mst_row(table, "ring_of_cliques:groups=16,width=16",
          gen::with_hashed_weights(gen::ring_of_cliques(16, 16), 1, 100, 7));
  mst_row(table, "margulis:side=16",
          gen::with_hashed_weights(gen::margulis_expander(16), 1, 100, 7));
  mst_row(table, "hypercube:dim=8",
          gen::with_hashed_weights(gen::hypercube(8), 1, 100, 7));
  table.print(std::cout);
}

// --graph=<spec> override: distributed MST on caller-chosen WEIGHTED
// scenarios (weights=lo..hi; unit weights otherwise). Disconnected specs
// are fine — the result is the minimum spanning forest.
void experiment_specs(const std::vector<NamedWeightedGraph>& graphs) {
  banner("MST on custom scenarios",
         "Boruvka fragment merging on --graph=<spec> workloads with "
         "convergecast (cc) merges; edge set checked against serial "
         "Kruskal.");
  Table table = mst_table();
  for (const auto& [name, wg] : graphs) mst_row(table, name, wg);
  table.print(std::cout);
}

}  // namespace
}  // namespace fc::bench

int main(int argc, char** argv) {
  if (const auto rc = fc::bench::weighted_spec_mode(
          "bench_mst", argc, argv, [&](const auto& graphs) {
            fc::bench::experiment_specs(graphs);
          }))
    return *rc;
  fc::bench::experiment_m1();
  fc::bench::experiment_m1_families();
  return 0;
}
