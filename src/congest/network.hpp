#pragma once
// The synchronous CONGEST round engine.
//
// Execution model (faithful to Peleg's CONGEST):
//  * Time proceeds in synchronous rounds.
//  * In each round every node may send at most ONE message along each
//    incident edge in each direction; the engine enforces this (send()
//    throws on a double-send).
//  * Messages sent in round r are delivered at the start of round r+1.
//  * Nodes act only on local knowledge: their id, their incident arcs, and
//    received messages. (The Context API exposes only local topology;
//    algorithms also receive global scalars like n or λ only when the
//    paper's algorithm assumes they are known.)
//
// Performance model — O(active nodes + messages) per round, for real:
//  * Message slots are per-directed-edge and DOUBLE-BUFFERED: one half of
//    the flat slot array receives this round's sends while handlers read
//    last round's half. End-of-round delivery is an O(1) offset flip plus
//    an O(messages) pass over the per-worker receiver lists that stamps
//    each receiver; nothing is copied, merged, or sorted.
//  * A node's inbox is materialized on the worker thread that runs its
//    handler, by scanning the node's contiguous flag range (skipped
//    entirely when the receiver stamp says the node got nothing). The scan
//    order is arc-id order, so the delivery order — the determinism
//    contract every algorithm's tie-breaking rests on — comes for free,
//    and consuming a slot clears its flag, so the read half is clean again
//    by the time the next flip reuses it.
//  * Receiver-indexed mail flags: a send on arc `a` stores the message at
//    the SENDER's index `a` but raises the flag at the RECEIVER's index
//    arc_reverse(a). Each sender writes only its own message range, and
//    the receiver's scan reads one contiguous run of flag bytes, touching
//    a message (and the reverse-arc table) only where a flag is set.
//  * Per-worker cache lines: no two workers' receiver, wakeup or inbox
//    list headers share a 64-byte line (WorkerList). Every send, wakeup
//    and inbox push_back writes its worker's header; packed 24-byte
//    headers would put 2–3 workers on one line, and that false sharing
//    made the parallel rounds slower than a 1-thread pool.
//  * Every algorithm runs SPARSE: step() executes only for nodes with a
//    non-empty inbox or a pending request_wakeup(), so a round costs
//    O(sum of active nodes' degrees), not O(n + m). RunOptions::force_dense
//    selects the dense sweep — step() on all n nodes, same zero-copy
//    delivery — as the differential oracle of that schedule.
//  * Handlers run in parallel on a thread pool (RunOptions::pool; a
//    1-thread pool is the serial run) once enough nodes are active; each
//    handler writes only its own node's state and its own outgoing slots,
//    and each slot has exactly one consumer, so rounds are data-race-free
//    by construction and bit-identical at every thread count — sparse or
//    dense.
//
// Knobs: RunOptions below is the only declaration of an engine knob. The
// option structs of every layer above (apps, core, dynamic, scenario)
// derive from it and hand themselves to run() unchanged, so a knob cannot
// be dropped on the way down; a layer that cannot honour one (a fault plan
// across a multi-phase app) rejects it with std::invalid_argument.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "congest/cancel.hpp"
#include "congest/faults.hpp"
#include "congest/message.hpp"
#include "congest/metrics.hpp"
#include "graph/graph.hpp"
#include "util/thread_pool.hpp"

namespace fc::congest {

/// A message as seen by the receiver: `via` is the RECEIVER's outgoing arc
/// for the edge the message arrived on (so replying on the same edge is
/// just send(via, ...)).
struct Incoming {
  ArcId via = kInvalidArc;
  Message msg;
};

class Network;

/// Per-node view handed to algorithm handlers. Valid only for the duration
/// of one handler call (the inbox span points into per-worker scratch).
class Context {
 public:
  NodeId id() const { return node_ - node_base_; }
  std::uint64_t round() const { return round_; }

  /// Local topology.
  std::uint32_t degree() const;
  ArcId arc_begin() const;
  ArcId arc_end() const;
  /// Neighbor at the other end of outgoing arc `a`.
  NodeId neighbor(ArcId a) const;
  /// The graph (for local lookups such as arc_reverse; algorithms must not
  /// use it for non-local shortcuts).
  const Graph& graph() const;

  /// Messages delivered this round (empty at round 0), sorted by `via`.
  std::span<const Incoming> inbox() const { return inbox_; }

  /// Send one message over outgoing arc `via` this round.
  /// Throws std::logic_error if `via` is not an outgoing arc of this node or
  /// if a message was already sent on it this round (CONGEST violation).
  void send(ArcId via, const Message& m);

  /// Schedule this node to run next round even if it receives nothing —
  /// the engine's knob for spontaneous activity (backlogs, timers). A node
  /// that neither receives nor requested a wakeup is NOT stepped. No-op
  /// under the force_dense sweep, where every node runs anyway.
  void request_wakeup();

  /// Composite-algorithm support (congest::run_edge_disjoint): a view of
  /// this context translated into a node/arc-contiguous block of the
  /// engine's graph whose CSR layout mirrors `local` exactly. id(), the
  /// topology accessors, graph(), the inbox `via` fields, and send() all
  /// speak `local` ids; the engine keeps accounting (slots, arc_sends,
  /// receiver stamps) in engine ids. Rewrites the delivered vias IN PLACE
  /// (this handler owns its inbox scratch), so build at most one view per
  /// handler call and stop using the parent context's inbox afterwards.
  Context block_view(NodeId node_base, ArcId arc_base,
                     const Graph& local) const;

  /// Mark this round with a named instant event in the run's telemetry
  /// (kFull mode; a single null-check otherwise). The hook that makes
  /// algorithm structure — MST fragment phases, batch-SSSP query launches —
  /// visible in exported traces. Annotations are deduplicated per
  /// (round, label), so every node of a phase may call this with the same
  /// label and the trace shows one event.
  void annotate(std::string_view label) {
    if (notes_ == nullptr) return;
    notes_->push_back({round_, std::string(label)});
  }

 private:
  friend class Network;
  Network* net_ = nullptr;
  const Graph* graph_ = nullptr;  // view graph: engine graph, or a block's
  NodeId node_ = kInvalidNode;    // ENGINE node id (node_base_ + id())
  NodeId node_base_ = 0;          // block_view translation offsets; 0 = the
  ArcId arc_base_ = 0;            //   identity view over the engine graph
  std::uint64_t round_ = 0;
  std::span<const Incoming> inbox_;
  std::vector<NodeId>* recv_ = nullptr;    // worker receiver list (stamping)
  std::vector<NodeId>* wakeup_ = nullptr;  // worker wakeup list; null = dense
  std::vector<Annotation>* notes_ = nullptr;  // telemetry sink; null = off
  bool woke_ = false;                      // wakeup already recorded
};

/// Base class for distributed algorithms. One instance carries the state of
/// ALL nodes (struct-of-vectors indexed by NodeId); handlers for different
/// nodes run concurrently, so a handler must touch only state of ctx.id().
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual std::string name() const { return "algorithm"; }

  /// Round 0: called once per node before any delivery; may send.
  virtual void start(Context& ctx) = 0;
  /// Rounds >= 1: called for the nodes with a non-empty inbox or a pending
  /// Context::request_wakeup() from last round; may send. Contract, for
  /// every algorithm: step() on a node with an empty inbox that requested
  /// no wakeup must be a pure no-op — no sends, no state change, nothing
  /// done() can observe — because the engine does not call it, while the
  /// RunOptions::force_dense oracle calls it on every node every round.
  /// Per-round bookkeeping (e.g. QuiescenceDetector::note_round) therefore
  /// lives in round_started(), which fires even on rounds where no node
  /// runs.
  virtual void step(Context& ctx) = 0;
  /// Global termination oracle, checked (single-threaded) after each round.
  /// This models the standard simulator convention: the paper's algorithms
  /// all have known round bounds, so termination detection is free.
  virtual bool done() const = 0;

  /// Called once per round, single-threaded, before any handler of that
  /// round (round 0 included), under both schedules.
  virtual void round_started(std::uint64_t round) { (void)round; }
};

/// The engine knobs, declared here and nowhere else: every option struct
/// above the engine (apps, core, dynamic, scenario) derives from this one
/// and passes itself straight to run(), so a knob added here reaches every
/// layer without forwarding code.
struct RunOptions {
  /// Round cap per run(); a run that hits it reports finished == false.
  std::uint64_t max_rounds = 10'000'000;
  /// Step every node every round (the dense sweep) instead of only the
  /// scheduled ones — the differential oracle of the Algorithm::step
  /// contract and the baseline of bench_engine's N1 rows.
  bool force_dense = false;
  /// Pool for the handler rounds; null selects ThreadPool::global(). The
  /// run is bit-identical for every pool size by construction; a 1-thread
  /// pool runs every handler on the calling thread. Delivery is always
  /// one serial pass on the calling thread.
  ThreadPool* pool = nullptr;
  /// Telemetry recorder — the one way to attach one (null or kOff = record
  /// nothing, the hot paths keep a single null-check). The recorder may be
  /// shared across several run() calls to build one multi-span trace; the
  /// run's own slice also lands in RunResult::telemetry, and
  /// Telemetry::series() reads the per-round curve back. Recording never
  /// changes the execution: rounds, messages, and per-arc sends are
  /// bit-identical in every mode.
  Telemetry* telemetry = nullptr;
  /// Mid-run fault injection (null = fault-free; the hot paths then keep a
  /// single bool check). Faults fire at fixed rounds against fixed ids, so
  /// a faulted run stays bit-identical across engines, pools, and thread
  /// counts. See congest/faults.hpp for the exact semantics per kind.
  const FaultPlan* faults = nullptr;
  /// Cooperative cancellation/deadline token, checked once at the top of
  /// every round under both schedules (null = one branch per round, like
  /// telemetry kOff). An expired token truncates the run before the next
  /// round starts: RunResult::cancelled is set, `finished` stays false, and
  /// in-flight sends land in `undelivered`. See congest/cancel.hpp.
  const CancelToken* cancel = nullptr;
};

class Network {
 public:
  /// The graph must outlive the Network.
  explicit Network(const Graph& g);

  const Graph& graph() const { return *graph_; }

  /// Execute `alg` from round 0 until done() or max_rounds.
  RunResult run(Algorithm& alg, const RunOptions& opts = {});

  /// Executions started on this engine over its lifetime. run() resets all
  /// per-run state, so a Network is reusable across runs; this counter lets
  /// pooling layers (serve::EnginePool) report and test actual reuse.
  std::uint64_t runs_started() const { return runs_started_; }

 private:
  friend class Context;

  void do_send(Context& ctx, ArcId via, const Message& m);
  /// Node-iteration strategy for one round of handlers. Sparse rounds pick
  /// between the two active modes by density: chasing the (unsorted)
  /// active list is ideal when few nodes run, but once a large fraction of
  /// the graph is active an in-order sweep that filters by activation
  /// stamp is faster — it restores the sequential memory-access pattern
  /// over node state and slots, for one cheap compare per skipped node.
  enum class Sweep { kAll, kActiveList, kActiveScan };
  /// Run one round's handlers, materializing inboxes from the read half.
  /// Returns the number of handlers stepped when telemetry is attached
  /// (0 otherwise): free for kAll/kActiveList, where every swept node runs,
  /// counted per worker only under the kActiveScan filter.
  std::uint64_t run_handlers(Algorithm& alg, std::uint64_t round, Sweep sweep,
                             bool record_wakeups, ThreadPool& pool);

  /// One worker's scratch list, padded to two cache lines: whatever the
  /// array's base alignment, no two workers' 24-byte headers share a
  /// 64-byte line. Padding rather than alignas(64): the aligned operator
  /// new and realigned run() frame that alignas brings pushed bench_engine's
  /// CI-guarded deep-path kRounds overhead (N2) above 8% in 19 of 46
  /// --quick runs on a 4-vCPU VM, against 3 of 46 for packed headers.
  template <typename T>
  struct WorkerList : std::vector<T> {
    char pad[128 - sizeof(std::vector<T>)];
  };

  const Graph* graph_;
  ArcId arcs_ = 0;
  // Double-buffered per-arc slots: [write_off_, write_off_ + arcs_) receives
  // this round's sends; the other half holds last round's, which handlers
  // consume (clearing the full flags as they read). A message on arc a sits
  // at slot_msg_[off + a] (sender-indexed); its flag at
  // slot_full_[off + arc_reverse(a)] (receiver-indexed).
  std::vector<Message> slot_msg_;        // size 2 * arcs_
  std::vector<std::uint8_t> slot_full_;  // size 2 * arcs_
  std::size_t write_off_ = 0;
  // Per-worker scratch: receiver lists (send() resolves the head node so
  // the stamp pass never touches the graph), wakeup requests, and the
  // inbox buffers the Context spans point into.
  std::vector<WorkerList<NodeId>> thread_recv_;
  std::vector<WorkerList<NodeId>> thread_wakeup_;
  std::vector<WorkerList<Incoming>> inbox_scratch_;
  // sched_stamp_[v] == r: v is scheduled for round r (received a message
  // and/or requested a wakeup). Gates both the inbox arc scan and the
  // kActiveScan filter; doubles as the kActiveList dedup marker.
  std::vector<std::uint64_t> sched_stamp_;
  std::vector<NodeId> active_;
  std::vector<std::uint64_t> arc_sends_;
  // Fault-injection state, engaged only when the run carries a FaultPlan
  // (faults_on_). The dead/corrupt maps are written single-threaded between
  // rounds (apply_faults) and read by concurrent handlers; the counters are
  // relaxed atomics because do_send runs on pool workers.
  void apply_faults(std::uint64_t round);
  bool faults_on_ = false;
  std::vector<Fault> fault_queue_;  // sorted by round; cursor-advanced
  std::size_t fault_cursor_ = 0;
  std::vector<std::uint8_t> node_dead_;
  std::vector<std::uint8_t> arc_dead_;
  std::vector<std::uint64_t> corrupt_stamp_;  // == round+1: corrupt sends now
  std::atomic<std::uint64_t> fault_dropped_{0};
  std::atomic<std::uint64_t> fault_corrupted_{0};
  std::uint64_t messages_ = 0;
  std::uint64_t runs_started_ = 0;
  // Attached telemetry recorder for the current run (null = off). Valid
  // only inside run(); RunOptions::telemetry when enabled.
  Telemetry* tele_ = nullptr;
};

/// The warm-engine rule: reuse `warm` only when it is bound to exactly `g`
/// (the same Graph object, e.g. the serve layer's pooled engine) — run()
/// resets all per-run state, so reuse is bit-identical — and otherwise
/// construct a fresh engine for `g` in `local`.
Network& engine_for(const Graph& g, Network* warm,
                    std::optional<Network>& local);

}  // namespace fc::congest
