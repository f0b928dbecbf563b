#pragma once
// Engine telemetry: per-round time-series metrics, phase timers, congestion
// histograms, and trace export for the CONGEST round engine.
//
// Design constraints (docs/OBSERVABILITY.md is the user-facing contract):
//  * Three modes. kOff records nothing and costs ONE pointer null-check per
//    engine hook. kRounds records the per-round counter series (active
//    nodes, messages, wakeups, sweep mode) and the per-run spans, nothing
//    else: no clock reads inside the round loop, samples packed to 28
//    bytes in chunky-growth storage, and end_run() touches only scalars —
//    cheap enough to leave on in production runs (the bench_engine
//    telemetry regime guards it at <= 5% on the worst-case regime, a deep
//    path whose rounds do almost no work). kFull adds the per-round phase
//    timers (delivery / step / sweep-bookkeeping), the congestion + inbox
//    distribution summaries, per-run series snapshots, and
//    Context::annotate capture — the diagnostic mode traces are exported
//    from.
//  * One recorder can span MANY engine executions: multi-phase hosts (MST's
//    announce/echo/connect runs, ScenarioRunner's BFS+broadcast composites)
//    pass the same Telemetry* through every run and get one globally
//    round-indexed series with one SpanSample per execution — that is how
//    MST phases show up as named spans in the exported trace.
//  * Recording is lock-free: handlers write only per-worker scratch
//    (active counters, inbox histograms, annotation lists), merged
//    single-threaded at round / run boundaries. The recorder itself is NOT
//    thread-safe across concurrent run() calls — one recorder, one engine
//    at a time, like RunOptions itself.
//
// Two exporters consume a snapshot: write_metrics_ndjson (one JSON object
// per line: header, rounds, annotations, histograms — the time-series feed)
// and write_chrome_trace (Chrome trace-event JSON, loadable in Perfetto /
// chrome://tracing: rounds as slices, phases as nested slices, annotations
// as instant events, engine executions as spans on their own track).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fc::congest {

enum class TelemetryMode : std::uint8_t { kOff, kRounds, kFull };

/// "off" | "rounds" | "full"; throws std::invalid_argument otherwise.
TelemetryMode parse_telemetry_mode(const std::string& text);
const char* to_string(TelemetryMode mode);

/// The node-iteration strategy the engine actually used for a round.
enum class SweepMode : std::uint8_t { kDense, kActiveList, kActiveScan };
const char* to_string(SweepMode sweep);

/// One round of the time series. Counter semantics (all exact, and
/// engine-independent: dense and sparse runs agree on everything except
/// `active` and `sweep`):
///   delivered  — inbox items handlers consumed this round (== messages
///                sent last round; 0 at round 0).
///   with_input — nodes whose inbox was non-empty this round.
///   active     — nodes whose handler ran (dense: every node).
///   sent       — messages sent this round.
///   wakeups    — Context::request_wakeup() calls this round (pending for
///                the NEXT round). Recorded under BOTH engines whenever a
///                recorder is attached: the dense sweep ignores wakeups
///                for scheduling but reports the same counts the sparse
///                engine would, keeping the columns comparable.
/// The *_ns phase timers are populated in kFull mode only (0 in kRounds):
/// step = the handler sweep, delivery = receiver stamping + active-list
/// build, bookkeep = buffer flip + termination check + sampling.
struct RoundSample {
  std::uint64_t round = 0;  // global index across all runs of one recorder
  std::uint64_t active = 0;
  std::uint64_t with_input = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  std::uint64_t wakeups = 0;
  SweepMode sweep = SweepMode::kDense;
  std::uint64_t step_ns = 0;
  std::uint64_t delivery_ns = 0;
  std::uint64_t bookkeep_ns = 0;
};

/// One engine execution under the recorder: rounds [first_round,
/// first_round + rounds) of the global series, named by Algorithm::name().
struct SpanSample {
  std::string name;
  std::uint64_t first_round = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t wall_ns = 0;  // whole run() wall time, incl. engine setup
  bool finished = false;
};

/// An instant event from Context::annotate: algorithm-visible structure
/// (MST fragment phases, batch-SSSP query launches) pinned to its round.
/// Deduplicated per (round, label): a label all nodes announce in one round
/// is one event.
struct Annotation {
  std::uint64_t round = 0;
  std::string label;
  friend bool operator==(const Annotation&, const Annotation&) = default;
};

/// Distribution summary in the value domain (message counts, inbox sizes).
/// Percentiles are nearest-rank over the recorded population, so they are
/// exact sample values, deterministic, and integer like the data.
struct HistogramSummary {
  std::uint64_t count = 0;  // population size
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// Summary of raw per-item values (e.g. per-arc send counts). Sorts a copy;
/// the input is untouched. Empty input -> all-zero summary.
HistogramSummary summarize_counts(std::span<const std::uint64_t> values);

/// Summary of pre-bucketed data: buckets[v] holds the multiplicity of
/// value v (e.g. inbox-size histograms).
HistogramSummary summarize_buckets(std::span<const std::uint64_t> buckets);

/// Everything a recorder saw, in exportable form. Timers,
/// `arc_congestion`, `inbox_sizes`, and `annotations` are populated in
/// kFull only — the kRounds cost contract rules out the per-run sorting
/// and histogram merging behind them. `arc_congestion` summarizes total
/// per-arc sends (all runs accumulated — the distribution behind
/// max_arc_congestion).
/// `inbox_sizes` summarizes the NON-EMPTY inbox sizes over every
/// (node, round) delivery. The per-run snapshot an engine returns in
/// RunResult::telemetry carries `series` in kFull only (kRounds keeps the
/// series in the recorder — read it via series()/snapshot(), which always
/// include it); its scalar totals are exact in both modes.
struct TelemetrySnapshot {
  TelemetryMode mode = TelemetryMode::kOff;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t wall_ns = 0;  // sum of run wall times (gaps not counted)
  std::vector<RoundSample> series;
  std::vector<SpanSample> spans;
  std::vector<Annotation> annotations;
  HistogramSummary arc_congestion;
  HistogramSummary inbox_sizes;
};

/// The recorder. Callers own it and pass it to the engine via
/// RunOptions::telemetry — the only way to attach one; the engine-facing
/// hooks below are called by Network::run only.
class Telemetry {
  /// kRounds storage: the counters that must be stored per round and
  /// nothing derivable, packed into two u64 words so the hot append is two
  /// 8-byte stores. Deliberately without initializers — the backing buffer
  /// is allocated uninitialized (value-initialization would memset
  /// hundreds of kilobytes of staging capacity on every cursor arm).
  struct CompactSample {
    std::uint64_t lo;  // active | with_input << 32
    std::uint64_t hi;  // sent   | wakeups    << 32
    std::uint32_t active() const { return static_cast<std::uint32_t>(lo); }
    std::uint32_t with_input() const {
      return static_cast<std::uint32_t>(lo >> 32);
    }
    std::uint32_t sent() const { return static_cast<std::uint32_t>(hi); }
    std::uint32_t wakeups() const {
      return static_cast<std::uint32_t>(hi >> 32);
    }
  };
  /// Sweep-mode run-length encoding: samples [first, next.first) used
  /// `sweep`. Indices are sample positions in compact_, not round numbers.
  struct SweepRun {
    std::uint32_t first = 0;
    SweepMode sweep = SweepMode::kDense;
  };

 public:
  explicit Telemetry(TelemetryMode mode = TelemetryMode::kRounds)
      : mode_(mode) {}

  TelemetryMode mode() const { return mode_; }
  bool enabled() const { return mode_ != TelemetryMode::kOff; }
  /// Phase timers + histograms + annotations are kFull-only.
  bool full() const { return mode_ == TelemetryMode::kFull; }

  /// Monotonic nanoseconds (steady_clock), the timebase of every *_ns.
  static std::uint64_t now_ns();

  // ---- engine-facing hooks (Network::run) -------------------------------

  /// Starts a new span; sizes the per-worker scratch. Also resets any
  /// worker scratch a crashed run may have left behind.
  void begin_run(std::string name, std::size_t workers);
  /// Handler-side accumulation for kActiveScan rounds — the only sweep
  /// whose active count isn't implied by the sweep size: `stepped` handlers
  /// ran on `worker`.
  void add_active(std::size_t worker, std::uint64_t stepped) {
    worker_active_[worker] += stepped;
  }
  /// Sum and clear the per-worker stepped counters (kActiveScan rounds).
  std::uint64_t take_active() {
    std::uint64_t active = 0;
    for (auto& a : worker_active_) {
      active += a;
      a = 0;
    }
    return active;
  }
  /// kFull: one non-empty inbox of `size` items was delivered on `worker`.
  void record_inbox(std::size_t worker, std::size_t size);
  /// kFull: the worker's annotation sink for Context::annotate (rounds are
  /// run-local; begin_run's offset is applied at end_run). nullptr
  /// otherwise.
  std::vector<Annotation>* worker_notes(std::size_t worker) {
    return full() ? &worker_notes_[worker] : nullptr;
  }
  /// Bump-pointer cursor over the kRounds sample storage's spare capacity.
  /// Network::run hoists one into its locals so the per-round append —
  /// record_counters, THE hot hook carrying the <= 5% deep-path overhead
  /// budget — is two compares and one 16-byte store, with no pointer chase
  /// through the recorder. Samples appended through a cursor become
  /// visible to readers only at commit_counters (the engine commits before
  /// end_run; a run aborted by an exception never commits, and the next
  /// begin_run drops whatever the slow path had staged).
  struct CounterCursor {
    CompactSample* cur = nullptr;
    CompactSample* end = nullptr;
    std::uint8_t sweep_last = 0xff;
  };
  /// Arm a cursor (kRounds mode; after begin_run). While a cursor is
  /// armed, compact storage readers see only committed samples.
  CounterCursor counters_cursor();
  /// Write the cursor's position (and sweep RLE state) back; disarms it.
  void commit_counters(CounterCursor& c);
  /// kRounds round close, once per engine round. Appends one 16-byte
  /// sample: four u32 counters, nothing else. The round number is the
  /// sample's global index, the delivered count is the previous sample's
  /// `sent` (both reconstructed in series(), using the spans for run
  /// boundaries), and the sweep mode is run-length encoded on the side (it
  /// changes a handful of times per run; a change takes the cold path).
  /// u32 is exact by CONGEST invariants: counts are bounded by the u32
  /// node/arc id domains (<= 1 message per arc per round), and round
  /// numbers beyond 2^32 are out of simulation reach.
  void record_counters(CounterCursor& c, SweepMode sweep,
                       std::uint64_t active, std::uint64_t with_input,
                       std::uint64_t sent, std::uint64_t wakeups) {
    if (c.cur == c.end || static_cast<std::uint8_t>(sweep) != c.sweep_last) {
      record_counters_slow(c, sweep, active, with_input, sent, wakeups);
      return;
    }
    *c.cur++ = {active | (with_input << 32), sent | (wakeups << 32)};
  }
  /// kFull round close: the fat sample with phase timers, stored directly.
  void record_round(std::uint64_t local_round, SweepMode sweep,
                    std::uint64_t active, std::uint64_t with_input,
                    std::uint64_t delivered, std::uint64_t sent,
                    std::uint64_t wakeups, std::uint64_t step_ns,
                    std::uint64_t delivery_ns, std::uint64_t bookkeep_ns);
  /// Close the span and fold the run's per-arc sends into the global
  /// congestion accounting. Returns the snapshot of THIS run alone (the
  /// engine moves it into RunResult::telemetry).
  TelemetrySnapshot end_run(std::uint64_t messages, bool finished,
                            std::span<const std::uint64_t> arc_sends);

  // ---- host-facing ------------------------------------------------------

  /// Everything recorded so far, across all runs.
  TelemetrySnapshot snapshot() const;
  /// The raw global round series (index is NOT the round number once
  /// multiple runs accumulate — use RoundSample::round). In kRounds mode
  /// this materializes from the compact storage on first access after new
  /// rounds; do not call it from a hot loop.
  const std::vector<RoundSample>& series() const;
  const std::vector<SpanSample>& spans() const { return spans_; }

 private:
  /// The cursor's cold path: commit, record a sweep-RLE change, grow the
  /// storage (chunky 8x, so amortized copy traffic is ~2 bytes per round),
  /// append, re-arm.
  void record_counters_slow(CounterCursor& c, SweepMode sweep,
                            std::uint64_t active, std::uint64_t with_input,
                            std::uint64_t sent, std::uint64_t wakeups);

  std::uint64_t recorded_rounds() const {
    return mode_ == TelemetryMode::kRounds ? compact_size_ : series_.size();
  }

  TelemetryMode mode_;
  // Global accumulation across runs. kRounds appends to the compact buffer
  // (series_ doubles as the lazily materialized fat view); kFull appends to
  // series_ directly. The compact buffer is managed by hand so its memory
  // is never value-initialized: [0, compact_size_) holds committed samples,
  // [compact_size_, compact_cap_) is cursor staging space.
  std::unique_ptr<CompactSample[]> compact_;
  std::size_t compact_size_ = 0;
  std::size_t compact_cap_ = 0;
  std::vector<SweepRun> sweep_rle_;
  std::uint8_t sweep_last_ = 0xff;  // forces an RLE entry on first record
  mutable std::vector<RoundSample> series_;
  std::vector<SpanSample> spans_;
  std::vector<Annotation> annotations_;
  std::vector<std::uint64_t> arc_total_;   // per-arc sends, all runs
  std::vector<std::uint64_t> inbox_hist_;  // [size] -> multiplicity
  std::uint64_t messages_ = 0;
  std::uint64_t wall_ns_ = 0;
  // Current-run state.
  std::size_t run_series_begin_ = 0;
  std::uint64_t run_round_offset_ = 0;
  std::uint64_t run_start_ns_ = 0;
  std::string run_name_;
  // Per-worker scratch (lock-free: one writer each).
  std::vector<std::uint64_t> worker_active_;
  std::vector<std::vector<std::uint64_t>> worker_inbox_hist_;
  std::vector<std::vector<Annotation>> worker_notes_;
};

// ---- exporters ----------------------------------------------------------

/// NDJSON metrics stream: a `header` line (totals, spans, histogram
/// summaries), one `round` line per series entry, one `annotation` line per
/// instant event. Every line is a self-contained JSON object.
void write_metrics_ndjson(std::ostream& out, const TelemetrySnapshot& snap);

/// Chrome trace-event JSON (open in https://ui.perfetto.dev or
/// chrome://tracing). Rounds are slices on a "rounds" track with the phase
/// timers nested inside; engine executions are slices on a "runs" track;
/// annotations are instant events. In kRounds snapshots (no timers) each
/// round is drawn 1 us wide so the structure stays inspectable.
void write_chrome_trace(std::ostream& out, const TelemetrySnapshot& snap);

/// JSON string escaping. Alias of fc::json_escape (util/json.hpp) — the
/// exporters emit through the shared fc::JsonWriter; this survives for
/// callers that predate it.
std::string json_escape(std::string_view text);

}  // namespace fc::congest
