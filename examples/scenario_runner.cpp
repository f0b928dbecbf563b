// Scenario runner: declarative workloads for the CONGEST engine.
//
//   ./scenario_runner --graph=rmat:n=4096,deg=8,seed=1 --algo=bfs
//   ./scenario_runner --graph=dumbbell:s=512,bridges=4 --algo=all --k=1024
//   ./scenario_runner --graph=torus:rows=32,cols=32,weights=1..100 \
//       --algo=batch-sssp --sources=8       # 8 SSSP queries, one execution
//   ./scenario_runner --cache=corpus --cache-gc   # evict stale cache files
//   ./scenario_runner --list                 # catalog of families and algos
//
// Both --graph and --algo repeat: every (graph, algo) combination becomes
// one row of the metrics table (rounds, messages, max per-arc / per-edge
// congestion). --algo=all runs every registered algorithm.
//
// Options:
//   --graph=<spec>   graph spec, repeatable ("family:k=v,k=v"; see --list).
//                    weights=lo..hi makes the spec weighted; largest_cc=1
//                    restricts it to its largest connected component;
//                    sources=k sets the batch query count in the spec.
//   --algo=<name>    algorithm, repeatable; "all" for every TOPOLOGY
//                    algorithm (default bfs). Weighted algorithms
//                    (weighted-apsp, mst, sssp, batch-sssp) run when named
//                    explicitly.
//   --k=<count>      messages for broadcast-style workloads (default: n)
//   --sources=<k>    batch query count for batch-bfs / batch-sssp: queries
//                    run from nodes 0..k-1 in ONE pipelined execution
//                    (default 1; overrides a spec's sources= parameter)
//   --source-mode=<m> placement of those k sources: "first" (nodes 0..k-1,
//                    the default) or "random" (k distinct seed-keyed nodes,
//                    deterministic in --seed; overrides a spec's
//                    source_mode= parameter)
//   --seed=<seed>    seed for message placement (default 1)
//   --root=<node>    root node for bfs/broadcast/convergecast (default 0)
//   --fault=<f>      mid-run fault, repeatable: "node:<v>@<r>" crashes node
//                    v at round r, "edge:<e>@<r>" / "arc:<a>@<r>" drop an
//                    edge (both directions) / one arc from round r on,
//                    "corrupt:<e>@<r>" flips payloads crossing edge e in
//                    exactly round r. Supported by bfs, batch-bfs,
//                    leader-election, broadcast, convergecast, sssp,
//                    batch-sssp; mst and weighted-apsp reject a plan (exit
//                    2). Ids are in the run graph's id space (see
//                    ScenarioConfig).
//   --stretch=<k>    weighted-apsp stretch parameter (default 3: 5-approx)
//   --cache=<dir>    binary graph corpus + manifest: generate once, reload
//   --cache-gc       garbage-collect --cache first: evict .fcg files the
//                    manifest does not vouch for (missing entry or checksum
//                    mismatch) and drop dangling manifest entries; exits
//                    after the sweep when no --graph is given
//   --telemetry=<m>  "off" (default), "rounds" (per-round counter series,
//                    cheap), or "full" (adds phase timers, inbox histograms,
//                    annotations). One recorder spans ALL runs of the
//                    invocation; see docs/OBSERVABILITY.md.
//   --trace-out=<f>  write a Chrome trace-event JSON of the whole invocation
//                    (open in Perfetto / chrome://tracing); needs --telemetry
//   --metrics-out=<f> write the NDJSON per-round metrics stream; needs
//                    --telemetry
//   --markdown       emit a GitHub-flavoured markdown table

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "congest/faults.hpp"
#include "congest/telemetry.hpp"
#include "scenario/graph_io.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

void print_catalog(const fc::scenario::ScenarioRunner& runner) {
  std::cout << "Graph families (--graph=<spec>):\n";
  fc::Table families({"family", "parameters", "regime", "example"});
  for (const auto* info : fc::scenario::Registry::instance().families())
    families.add_row({info->name, info->params_help, info->regime,
                      info->example});
  families.print(std::cout);
  std::cout << "\nAlgorithms (--algo=<name>):";
  for (const auto& name : runner.algorithms()) std::cout << ' ' << name;
  std::cout << "\nWeighted algorithms (need --algo by name; use "
               "weights=lo..hi specs):";
  for (const auto& name : runner.weighted_algorithms())
    std::cout << ' ' << name;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fc;
  const Options opts(argc, argv);
  const scenario::ScenarioRunner runner;

  // Same fail-fast contract as the specs themselves: a typo'd flag must not
  // silently change the experiment.
  static const std::vector<std::string> known_flags = {
      "graph",    "algo", "k",        "seed",    "root",    "cache",
      "cache-gc", "list", "markdown", "stretch", "sources",
      "telemetry", "trace-out", "metrics-out", "source-mode", "fault"};
  for (const auto& key : opts.keys()) {
    if (std::find(known_flags.begin(), known_flags.end(), key) ==
        known_flags.end()) {
      std::cerr << "scenario_runner: unknown option '--" << key
                << "'; known options: --graph --algo --k --sources "
                   "--source-mode --seed --root --stretch "
                   "--fault --telemetry --trace-out --metrics-out --cache "
                   "--cache-gc --markdown --list\n";
      return 2;
    }
  }

  congest::TelemetryMode tmode = congest::TelemetryMode::kOff;
  try {
    tmode = congest::parse_telemetry_mode(opts.get("telemetry", "off"));
  } catch (const std::exception& err) {
    std::cerr << "scenario_runner: " << err.what() << "\n";
    return 2;
  }
  const std::string trace_out = opts.get("trace-out", "");
  const std::string metrics_out = opts.get("metrics-out", "");
  if (tmode == congest::TelemetryMode::kOff &&
      (!trace_out.empty() || !metrics_out.empty())) {
    std::cerr << "scenario_runner: --trace-out/--metrics-out need "
                 "--telemetry=rounds or --telemetry=full\n";
    return 2;
  }

  if (opts.get_bool("list")) {
    print_catalog(runner);
    return 0;
  }

  const std::string cache_dir = opts.get("cache", "");
  if (opts.get_bool("cache-gc")) {
    if (cache_dir.empty()) {
      std::cerr << "scenario_runner: --cache-gc needs --cache=<dir>\n";
      return 2;
    }
    try {
      const auto gc = scenario::gc_corpus(cache_dir);
      std::cout << "cache-gc " << cache_dir << ": kept " << gc.kept
                << " entries, evicted " << gc.evicted_files
                << " files, dropped " << gc.dropped_entries
                << " manifest entries\n";
    } catch (const std::exception& err) {
      std::cerr << "scenario_runner: " << err.what() << "\n";
      return 2;
    }
    if (opts.get_all("graph").empty()) return 0;
  }

  const auto graph_specs = opts.get_all("graph");
  if (graph_specs.empty()) {
    std::cerr << "usage: scenario_runner --graph=<spec> [--algo=<name>] ...\n"
                 "       scenario_runner --list\n"
                 "       scenario_runner --cache=<dir> --cache-gc\n";
    return 2;
  }
  std::vector<std::string> algos = opts.get_all("algo");
  if (algos.empty()) algos.push_back("bfs");
  if (algos.size() == 1 && algos[0] == "all") algos = runner.algorithms();

  scenario::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  cfg.k = static_cast<std::uint64_t>(opts.get_int("k", 0));
  cfg.root = static_cast<NodeId>(opts.get_int("root", 0));
  cfg.stretch_k = static_cast<std::uint32_t>(opts.get_int("stretch", 3));
  cfg.sources = static_cast<std::uint64_t>(opts.get_int("sources", 0));
  const std::string source_mode = opts.get("source-mode", "");
  if (source_mode == "first") {
    cfg.source_mode = scenario::SourceMode::kFirst;
  } else if (source_mode == "random") {
    cfg.source_mode = scenario::SourceMode::kRandom;
  } else if (!source_mode.empty()) {
    std::cerr << "scenario_runner: --source-mode must be 'first' or "
                 "'random', got '"
              << source_mode << "'\n";
    return 2;
  }
  congest::Telemetry telemetry(tmode);
  if (tmode != congest::TelemetryMode::kOff) cfg.telemetry = &telemetry;

  // --fault=kind:id@round, repeatable. Ids are validated by the engine
  // against the graph each run actually executes on.
  congest::FaultPlan fault_plan;
  for (const std::string& f : opts.get_all("fault")) {
    const auto colon = f.find(':');
    const auto at = f.find('@');
    std::uint64_t id = 0, round = 0;
    bool shape_ok = colon != std::string::npos && at != std::string::npos &&
                    colon < at;
    if (shape_ok) {
      try {
        std::size_t used = 0;
        const std::string id_text = f.substr(colon + 1, at - colon - 1);
        id = std::stoull(id_text, &used);
        shape_ok = used == id_text.size();
        const std::string round_text = f.substr(at + 1);
        round = std::stoull(round_text, &used);
        shape_ok = shape_ok && used == round_text.size() &&
                   !round_text.empty();
      } catch (const std::exception&) {
        shape_ok = false;
      }
    }
    const std::string kind = shape_ok ? f.substr(0, colon) : "";
    if (kind == "node") {
      fault_plan.crash_node(round, static_cast<NodeId>(id));
    } else if (kind == "edge") {
      fault_plan.drop_edge(round, static_cast<EdgeId>(id));
    } else if (kind == "arc") {
      fault_plan.drop_arc(round, static_cast<ArcId>(id));
    } else if (kind == "corrupt") {
      fault_plan.corrupt_edge(round, static_cast<EdgeId>(id));
    } else {
      std::cerr << "scenario_runner: --fault must be node:<v>@<r>, "
                   "edge:<e>@<r>, arc:<a>@<r> or corrupt:<e>@<r>, got '"
                << f << "'\n";
      return 2;
    }
  }
  // Algorithms that cannot honour a plan reject it (std::invalid_argument,
  // caught below: exit 2).
  if (!fault_plan.empty()) cfg.faults = &fault_plan;

  std::vector<scenario::ScenarioResult> results;
  try {
    for (const auto& spec_text : graph_specs) {
      const auto spec = scenario::GraphSpec::parse(spec_text);
      Graph g;
      if (!cache_dir.empty()) {
        bool from_cache = false;
        g = scenario::load_or_generate(spec, cache_dir, &from_cache);
        std::cout << (from_cache ? "cache hit:  " : "generated:  ")
                  << spec.to_string() << "\n";
      } else {
        g = scenario::Registry::instance().build(spec);
      }
      const scenario::ScenarioConfig run_cfg =
          scenario::apply_spec_config(cfg, spec);
      // One weighted build shared by every weighted algo on this spec.
      std::optional<WeightedGraph> weighted;
      for (const auto& algo : algos) {
        if (runner.is_weighted(algo)) {
          if (!weighted)
            weighted = scenario::apply_spec_weights(g, spec);
          results.push_back(runner.run(algo, *weighted, spec.to_string(),
                                       run_cfg));
        } else {
          results.push_back(runner.run(algo, g, spec.to_string(), run_cfg));
        }
      }
    }
  } catch (const std::exception& err) {
    std::cerr << "scenario_runner: " << err.what() << "\n";
    return 2;
  }

  Table report = scenario::make_report(results);
  if (opts.get_bool("markdown"))
    report.print_markdown(std::cout);
  else
    report.print(std::cout);

  if (cfg.telemetry != nullptr) {
    const congest::TelemetrySnapshot snap = telemetry.snapshot();
    std::cout << "telemetry: mode=" << congest::to_string(snap.mode)
              << " rounds=" << snap.rounds << " spans=" << snap.spans.size()
              << " arc_p50=" << snap.arc_congestion.p50
              << " arc_p99=" << snap.arc_congestion.p99 << "\n";
    const auto write = [](const std::string& path, const auto& writer,
                          const char* what) {
      std::ofstream out(path);
      if (!out) {
        std::cerr << "scenario_runner: cannot open " << path << "\n";
        return false;
      }
      writer(out);
      std::cout << what << " written: " << path << "\n";
      return true;
    };
    if (!trace_out.empty() &&
        !write(trace_out,
               [&](std::ostream& o) { congest::write_chrome_trace(o, snap); },
               "trace"))
      return 2;
    if (!metrics_out.empty() &&
        !write(metrics_out,
               [&](std::ostream& o) { congest::write_metrics_ndjson(o, snap); },
               "metrics"))
      return 2;
  }

  for (const auto& r : results)
    if (!r.finished) return 1;
  return 0;
}
