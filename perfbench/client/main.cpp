// Benchmark client: runs one workload for a fixed time and prints every
// metric by name and unit, then one JSON result line.
//
//   perfbench_client --workload=bcast-expander --seed=1 --seconds=30
//                    --trace=0 --serve-bin=<scenario_serve>
//                    --work-dir=<work dir> [--trace-out=<file>]
//
// Every run drives two closed-loop lanes with one client: the broadcast
// lane (bcast_lane.hpp) on the workload's graph and the serve lane
// (serve_lane.hpp) against a live daemon. The workload's primary lane gets
// 60% of the time and the other lane the rest; each lane runs at least
// enough ops for its statistics (the serve tails need 100 samples per
// class). One unmeasured broadcast op comes first. With --trace=0 the result carries the end-to-end metrics; with
// --trace=1 the ops are also replayed layer by layer and the result carries
// the per-layer metrics, while the spans go to --trace-out.
//
// Exit status: 0 when every check passed, 1 when any failed, 2 on bad
// arguments.

#include <charconv>
#include <csignal>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>

#include "bcast_lane.hpp"
#include "common.hpp"
#include "serve/service.hpp"
#include "serve_lane.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  BcastInput bcast;
  bool serve_primary;
};

const BcastInput kExpander{"random_regular:n=1024,d=64,seed=1", 64, 4096};
const BcastInput kBottleneck{"dumbbell:s=256,bridges=4", 4, 128};

const Workload kWorkloads[] = {
    {"bcast-expander", kExpander, false},
    {"bcast-bottleneck", kBottleneck, false},
    {"serve-mixed", kBottleneck, true},
};

constexpr double kPrimaryShare = 0.6;
constexpr std::size_t kSegments = 5;
// Minimum ops per run, spread over the segments.
constexpr std::size_t kMinBcastOps = 5;
constexpr std::size_t kMinServeCycles = 100;
constexpr std::size_t kMinTracedBcastOps = 2;
constexpr std::size_t kMinTracedServeCycles = 12;

/// Shortest decimal that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon surfaces as EPIPE
  const fc::Options opts(argc, argv);
  const std::string workload_name = opts.get("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload_name == w.name) workload = &w;
  const double seconds = opts.get_double("seconds", 0);
  const std::string serve_bin = opts.get("serve-bin", "");
  const std::string work_dir = opts.get("work-dir", "");
  if (workload == nullptr || seconds <= 0 || serve_bin.empty() ||
      work_dir.empty() || !opts.has("seed")) {
    std::cerr << "usage: perfbench_client --workload=bcast-expander|"
                 "bcast-bottleneck|serve-mixed --seed=<n> --seconds=<s> "
                 "--trace=0|1 --serve-bin=<path> --work-dir=<dir> "
                 "[--trace-out=<file>]\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 0));
  const bool traced = opts.get_int("trace", 0) != 0;

  Ledger ledger;
  Metrics metrics;
  try {
    BcastLane bcast(workload->bcast, seed);
    ServeLane serve(serve_bin, work_dir, seed, traced);

    // The run is measured in segments. Each segment sets both lanes up
    // afresh (a new graph and message placement, a new daemon on a new
    // corpus) and then runs its share of both lanes, so set-up repeats,
    // every lane samples the whole run, and the broadcast medians cover
    // several placements. setup_s is the sum of the two lanes' median
    // set-up times.
    const std::size_t segments = traced ? 1 : kSegments;
    const double primary_s = kPrimaryShare * seconds / segments;
    const double secondary_s = (1 - kPrimaryShare) * seconds / segments;
    const std::size_t min_ops = traced ? kMinTracedBcastOps : kMinBcastOps;
    const std::size_t min_cycles =
        traced ? kMinTracedServeCycles : kMinServeCycles;
    Tracer tracer;
    std::uint64_t op_id = 0;
    const auto run_bcast = [&](double budget_s) {
      // Start another op only while it would end near the budget: an
      // expander op lasts seconds, and overshooting every segment by a
      // whole op would stretch the run well past --seconds.
      const Clock::time_point t0 = Clock::now();
      double last_op_s = 0;
      for (std::size_t n = 0; n * segments < min_ops ||
                              seconds_since(t0) + last_op_s / 2 < budget_s;
           ++n) {
        const Clock::time_point op_start = Clock::now();
        if (traced)
          bcast.run_traced_op(tracer, ++op_id, ledger);
        else
          bcast.run_op(ledger);
        last_op_s = seconds_since(op_start);
      }
    };
    const auto run_serve = [&](double budget_s) {
      // One unmeasured cycle first: the daemon's first answers after the
      // other lane's burst of work are slow for reasons of the benchmark's
      // own lane switch, not of serving.
      if (!traced) serve.run_cycle(nullptr, op_id, ledger, /*measure=*/false);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t n = 0;
           n * segments < min_cycles || seconds_since(t0) < budget_s; ++n)
        serve.run_cycle(traced ? &tracer : nullptr, op_id, ledger);
    };
    std::vector<double> bcast_setup, serve_setup;
    for (std::size_t seg = 0; seg < segments; ++seg) {
      bcast_setup.push_back(bcast.setup(seg));
      serve_setup.push_back(serve.start());
      if (seg == 0) bcast.run_op(ledger, /*measure=*/false);  // first touch
      if (workload->serve_primary) {
        run_serve(primary_s);
        run_bcast(secondary_s);
      } else {
        run_bcast(primary_s);
        run_serve(secondary_s);
      }
      serve.stop(ledger);
    }

    if (!traced) {
      metrics.push_back({"setup_s", "s",
                         median(bcast_setup) + median(serve_setup),
                         segments});
      for (const Metric& m : bcast.end_to_end()) metrics.push_back(m);
      for (const Metric& m : serve.end_to_end()) metrics.push_back(m);
    } else {
      for (const Metric& m : bcast.per_layer()) metrics.push_back(m);
      for (const Metric& m : serve.per_layer()) metrics.push_back(m);
      const double untraced = bcast.library_ms() + serve.service_ms();
      const double replayed = bcast.replay_ms() + serve.replay_ms();
      const Tracer::Attribution a = tracer.attribution(0);
      metrics.push_back({"trace.overhead_pct", "%",
                         100 * (replayed - untraced) / untraced, op_id});
      metrics.push_back({"trace.unattributed_pct", "%",
                         100 * a.unattributed_ms / a.op_ms, op_id});
      metrics.push_back(
          {"error_rate", "ratio",
           static_cast<double>(ledger.failed) /
               static_cast<double>(std::max<std::uint64_t>(ledger.attempted, 1)),
           ledger.attempted});
      const std::string trace_out = opts.get("trace-out", "");
      if (!trace_out.empty()) {
        tracer.write_chrome_trace(trace_out);
        std::cout << "trace: " << tracer.size() << " spans written to "
                  << trace_out << "\n";
      }
    }
  } catch (const std::exception& err) {
    std::cerr << "perfbench: run aborted: " << err.what() << "\n";
    return 1;
  }

  std::cout << "workload " << workload->name << " seed " << seed
            << (traced ? " traced" : "") << ": " << ledger.attempted
            << " ops, " << ledger.failed << " failed; engine threads "
            << fc::ThreadPool::global().size() << ", engine pool "
            << fc::serve::ServiceOptions{}.pool_capacity << "\n";
  for (const Metric& m : metrics)
    std::cout << "  " << std::left << std::setw(34) << m.name << " "
              << std::setw(14) << number(m.value) << " " << std::setw(7)
              << m.unit << " n=" << m.samples << "\n";

  fc::JsonWriter w;
  w.begin_object()
      .field("correct", ledger.failed == 0)
      .field("attempted", ledger.attempted)
      .field("failed", ledger.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").raw(number(m.value));
    w.field("unit", m.unit).end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
  return ledger.failed == 0 ? 0 : 1;
}
