#include "congest/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "util/json.hpp"

namespace fc::congest {

TelemetryMode parse_telemetry_mode(const std::string& text) {
  if (text == "off") return TelemetryMode::kOff;
  if (text == "rounds") return TelemetryMode::kRounds;
  if (text == "full") return TelemetryMode::kFull;
  throw std::invalid_argument("telemetry: unknown mode '" + text +
                              "' (expected off, rounds, or full)");
}

const char* to_string(TelemetryMode mode) {
  switch (mode) {
    case TelemetryMode::kOff: return "off";
    case TelemetryMode::kRounds: return "rounds";
    case TelemetryMode::kFull: return "full";
  }
  return "?";
}

const char* to_string(SweepMode sweep) {
  switch (sweep) {
    case SweepMode::kDense: return "dense";
    case SweepMode::kActiveList: return "list";
    case SweepMode::kActiveScan: return "scan";
  }
  return "?";
}

namespace {

/// Nearest-rank percentile over a sorted sample: the smallest value with at
/// least ceil(q * count) observations at or below it.
std::uint64_t rank_value(std::span<const std::uint64_t> sorted, double q) {
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  if (rank == 0) rank = 1;
  return sorted[std::min(rank, n) - 1];
}

}  // namespace

HistogramSummary summarize_counts(std::span<const std::uint64_t> values) {
  HistogramSummary s;
  if (values.empty()) return s;
  std::vector<std::uint64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  s.p50 = rank_value(sorted, 0.50);
  s.p90 = rank_value(sorted, 0.90);
  s.p99 = rank_value(sorted, 0.99);
  s.max = sorted.back();
  return s;
}

HistogramSummary summarize_buckets(std::span<const std::uint64_t> buckets) {
  HistogramSummary s;
  for (const std::uint64_t multiplicity : buckets) s.count += multiplicity;
  if (s.count == 0) return s;
  const auto rank_of = [&](double q) {
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(s.count));
    if (static_cast<double>(rank) < q * static_cast<double>(s.count)) ++rank;
    return rank == 0 ? 1 : rank;
  };
  const std::uint64_t r50 = rank_of(0.50), r90 = rank_of(0.90),
                      r99 = rank_of(0.99);
  std::uint64_t seen = 0;
  bool got50 = false, got90 = false, got99 = false;
  for (std::size_t v = 0; v < buckets.size(); ++v) {
    if (buckets[v] == 0) continue;
    seen += buckets[v];
    if (!got50 && seen >= r50) s.p50 = v, got50 = true;
    if (!got90 && seen >= r90) s.p90 = v, got90 = true;
    if (!got99 && seen >= r99) s.p99 = v, got99 = true;
    s.max = v;
  }
  return s;
}

std::uint64_t Telemetry::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Telemetry::begin_run(std::string name, std::size_t workers) {
  run_name_ = std::move(name);
  run_round_offset_ =
      spans_.empty() ? 0 : spans_.back().first_round + spans_.back().rounds;
  // Drop samples from a run that never reached end_run (an exception mid
  // run): compact rounds are numbered by position, so orphans would be
  // mis-attributed to this run.
  if (mode_ == TelemetryMode::kRounds && compact_size_ > run_round_offset_) {
    compact_size_ = static_cast<std::size_t>(run_round_offset_);
    while (!sweep_rle_.empty() && sweep_rle_.back().first >= compact_size_)
      sweep_rle_.pop_back();
    sweep_last_ = sweep_rle_.empty()
                      ? std::uint8_t{0xff}
                      : static_cast<std::uint8_t>(sweep_rle_.back().sweep);
  }
  run_series_begin_ = static_cast<std::size_t>(recorded_rounds());
  worker_active_.assign(workers, 0);
  worker_inbox_hist_.assign(workers, {});
  worker_notes_.assign(workers, {});
  run_start_ns_ = now_ns();
}

Telemetry::CounterCursor Telemetry::counters_cursor() {
  if (mode_ != TelemetryMode::kRounds) return {};
  return {compact_.get() + compact_size_, compact_.get() + compact_cap_,
          sweep_last_};
}

void Telemetry::commit_counters(CounterCursor& c) {
  if (c.cur != nullptr)
    compact_size_ = static_cast<std::size_t>(c.cur - compact_.get());
  sweep_last_ = c.sweep_last;
  c = {};
}

void Telemetry::record_counters_slow(CounterCursor& c, SweepMode sweep,
                                     std::uint64_t active,
                                     std::uint64_t with_input,
                                     std::uint64_t sent,
                                     std::uint64_t wakeups) {
  if (c.cur != nullptr)
    compact_size_ = static_cast<std::size_t>(c.cur - compact_.get());
  if (static_cast<std::uint8_t>(sweep) != c.sweep_last) {
    c.sweep_last = static_cast<std::uint8_t>(sweep);
    sweep_rle_.push_back({static_cast<std::uint32_t>(compact_size_), sweep});
  }
  if (compact_size_ == compact_cap_) {
    const std::size_t cap = compact_cap_ < 4096 ? 4096 : compact_cap_ * 8;
    std::unique_ptr<CompactSample[]> grown(new CompactSample[cap]);
    if (compact_size_ > 0)
      std::memcpy(grown.get(), compact_.get(),
                  compact_size_ * sizeof(CompactSample));
    compact_ = std::move(grown);
    compact_cap_ = cap;
  }
  compact_[compact_size_++] = {active | (with_input << 32),
                               sent | (wakeups << 32)};
  c.cur = compact_.get() + compact_size_;
  c.end = compact_.get() + compact_cap_;
}

void Telemetry::record_inbox(std::size_t worker, std::size_t size) {
  auto& hist = worker_inbox_hist_[worker];
  if (size >= hist.size()) hist.resize(size + 1, 0);
  ++hist[size];
}

void Telemetry::record_round(std::uint64_t local_round, SweepMode sweep,
                             std::uint64_t active, std::uint64_t with_input,
                             std::uint64_t delivered, std::uint64_t sent,
                             std::uint64_t wakeups, std::uint64_t step_ns,
                             std::uint64_t delivery_ns,
                             std::uint64_t bookkeep_ns) {
  series_.push_back({run_round_offset_ + local_round, active, with_input,
                     delivered, sent, wakeups, sweep, step_ns, delivery_ns,
                     bookkeep_ns});
}

const std::vector<RoundSample>& Telemetry::series() const {
  if (mode_ != TelemetryMode::kRounds || series_.size() == compact_size_)
    return series_;
  // Materialize the fat view from the 16-byte samples: round numbers and
  // run boundaries come from the spans (samples were appended one per
  // round, in span order), delivered_r is sent_{r-1} within a run (0 at a
  // run's first round), and the sweep mode comes from the RLE table.
  series_.clear();
  series_.reserve(compact_size_);
  std::size_t span_i = 0, rle_i = 0;
  std::uint64_t span_left = 0, round = 0, prev_sent = 0;
  for (std::size_t i = 0; i < compact_size_; ++i) {
    while (span_left == 0 && span_i < spans_.size()) {
      round = spans_[span_i].first_round;
      span_left = spans_[span_i].rounds;
      prev_sent = 0;
      ++span_i;
    }
    if (span_left == 0 && i == run_series_begin_) {
      round = run_round_offset_;  // the still-open run's samples
      prev_sent = 0;
    }
    while (rle_i + 1 < sweep_rle_.size() && sweep_rle_[rle_i + 1].first <= i)
      ++rle_i;
    const SweepMode sweep =
        sweep_rle_.empty() ? SweepMode::kDense : sweep_rle_[rle_i].sweep;
    const CompactSample& c = compact_[i];
    series_.push_back({round, c.active(), c.with_input(), prev_sent, c.sent(),
                       c.wakeups(), sweep, 0, 0, 0});
    prev_sent = c.sent();
    ++round;
    if (span_left > 0) --span_left;
  }
  return series_;
}

TelemetrySnapshot Telemetry::end_run(std::uint64_t messages, bool finished,
                                     std::span<const std::uint64_t> arc_sends) {
  const std::uint64_t wall = now_ns() - run_start_ns_;
  SpanSample span;
  span.name = std::move(run_name_);
  span.first_round = run_round_offset_;
  span.rounds = recorded_rounds() - run_series_begin_;
  span.messages = messages;
  span.wall_ns = wall;
  span.finished = finished;
  spans_.push_back(span);
  messages_ += messages;
  wall_ns_ += wall;

  TelemetrySnapshot run;
  run.mode = mode_;
  run.rounds = span.rounds;
  run.messages = messages;
  run.wall_ns = wall;
  run.spans.push_back(span);
  // Everything below is kFull-only: the kRounds cost contract (<= 5% on a
  // deep path whose whole round is tens of nanoseconds) has no room for
  // per-run series copies, O(m) congestion folds, or O(m log m) sorts.
  // kRounds hosts read the accumulated series from series()/snapshot().
  if (full()) {
    run.series.assign(
        series_.begin() + static_cast<std::ptrdiff_t>(run_series_begin_),
        series_.end());
    // Fold per-arc sends into the global distribution (multi-run hosts
    // rerun on the same graph, so arc ids line up; a caller that switches
    // graphs mid-recorder just widens the vector).
    if (arc_total_.size() < arc_sends.size())
      arc_total_.resize(arc_sends.size(), 0);
    for (std::size_t a = 0; a < arc_sends.size(); ++a)
      arc_total_[a] += arc_sends[a];
    run.arc_congestion = summarize_counts(arc_sends);
    std::vector<std::uint64_t> run_hist;
    for (const auto& hist : worker_inbox_hist_) {
      if (run_hist.size() < hist.size()) run_hist.resize(hist.size(), 0);
      for (std::size_t v = 0; v < hist.size(); ++v) run_hist[v] += hist[v];
    }
    if (inbox_hist_.size() < run_hist.size())
      inbox_hist_.resize(run_hist.size(), 0);
    for (std::size_t v = 0; v < run_hist.size(); ++v)
      inbox_hist_[v] += run_hist[v];
    run.inbox_sizes = summarize_buckets(run_hist);

    std::vector<Annotation> notes;
    for (auto& worker : worker_notes_) {
      for (auto& note : worker)
        notes.push_back({run_round_offset_ + note.round,
                         std::move(note.label)});
      worker.clear();
    }
    std::sort(notes.begin(), notes.end(),
              [](const Annotation& a, const Annotation& b) {
                return a.round != b.round ? a.round < b.round
                                          : a.label < b.label;
              });
    notes.erase(std::unique(notes.begin(), notes.end()), notes.end());
    run.annotations = notes;
    annotations_.insert(annotations_.end(),
                        std::make_move_iterator(notes.begin()),
                        std::make_move_iterator(notes.end()));
  }
  return run;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot snap;
  snap.mode = mode_;
  snap.rounds =
      spans_.empty() ? 0 : spans_.back().first_round + spans_.back().rounds;
  snap.messages = messages_;
  snap.wall_ns = wall_ns_;
  snap.series = series();
  snap.spans = spans_;
  snap.annotations = annotations_;
  snap.arc_congestion = summarize_counts(arc_total_);
  snap.inbox_sizes = summarize_buckets(inbox_hist_);
  return snap;
}

// ---- exporters ----------------------------------------------------------

namespace {

void histogram_json(JsonWriter& w, const char* name,
                    const HistogramSummary& h) {
  w.key(name)
      .begin_object()
      .field("count", h.count)
      .field("p50", h.p50)
      .field("p90", h.p90)
      .field("p99", h.p99)
      .field("max", h.max)
      .end_object();
}

}  // namespace

void write_metrics_ndjson(std::ostream& out, const TelemetrySnapshot& snap) {
  JsonWriter w;
  w.begin_object()
      .field("type", "header")
      .field("mode", to_string(snap.mode))
      .field("rounds", snap.rounds)
      .field("messages", snap.messages)
      .field("wall_ns", snap.wall_ns);
  histogram_json(w, "arc_congestion", snap.arc_congestion);
  histogram_json(w, "inbox_sizes", snap.inbox_sizes);
  w.key("spans").begin_array();
  for (const auto& s : snap.spans)
    w.begin_object()
        .field("name", s.name)
        .field("first_round", s.first_round)
        .field("rounds", s.rounds)
        .field("messages", s.messages)
        .field("wall_ns", s.wall_ns)
        .field("finished", s.finished)
        .end_object();
  w.end_array().end_object();
  out << w.str() << "\n";
  for (const auto& r : snap.series) {
    w.clear();
    w.begin_object()
        .field("type", "round")
        .field("round", r.round)
        .field("active", r.active)
        .field("with_input", r.with_input)
        .field("delivered", r.delivered)
        .field("sent", r.sent)
        .field("wakeups", r.wakeups)
        .field("sweep", to_string(r.sweep))
        .field("step_ns", r.step_ns)
        .field("delivery_ns", r.delivery_ns)
        .field("bookkeep_ns", r.bookkeep_ns)
        .end_object();
    out << w.str() << "\n";
  }
  for (const auto& a : snap.annotations) {
    w.clear();
    w.begin_object()
        .field("type", "annotation")
        .field("round", a.round)
        .field("label", a.label)
        .end_object();
    out << w.str() << "\n";
  }
}

namespace {

/// Duration a round occupies on the trace timeline: the measured phase sum
/// in kFull snapshots, a fixed 1 us otherwise so rounds stay visible.
std::uint64_t round_dur_ns(const RoundSample& r) {
  const std::uint64_t ns = r.step_ns + r.delivery_ns + r.bookkeep_ns;
  return ns > 0 ? ns : 1000;
}

void event(std::ostream& out, bool& first, const std::string& body) {
  if (!first) out << ",\n";
  first = false;
  out << body;
}

/// Common slice/instant prelude: {"ph": <ph>, "name": <name>, pids/tids,
/// "ts": <ts us>}. The writer is handed back open for dur/args fields.
JsonWriter trace_event(const char* ph, const std::string& name, int pid,
                       int tid, const std::string& ts_us) {
  JsonWriter w;
  w.begin_object()
      .field("ph", ph)
      .field("name", name)
      .field("pid", std::int64_t{pid})
      .field("tid", std::int64_t{tid})
      .key("ts")
      .raw(ts_us);
  return w;
}

std::string us(std::uint64_t ns) {
  // Microsecond timestamps with nanosecond precision kept as decimals.
  return std::to_string(ns / 1000) + "." + std::to_string(ns % 1000 / 100) +
         std::to_string(ns % 100 / 10) + std::to_string(ns % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TelemetrySnapshot& snap) {
  constexpr int kPid = 1, kTidRuns = 1, kTidRounds = 2;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& [tid, track] :
       {std::pair<int, const char*>{0, "fastcast engine"},
        {kTidRuns, "runs"},
        {kTidRounds, "rounds"}}) {
    JsonWriter w = trace_event("M", tid == 0 ? "process_name" : "thread_name",
                               kPid, tid, "0");
    w.key("args").begin_object().field("name", track).end_object();
    event(out, first, w.end_object().take());
  }

  // Timeline: rounds laid end to end; round r starts where r-1 ended.
  std::vector<std::uint64_t> start_ns(snap.series.size() + 1, 0);
  for (std::size_t i = 0; i < snap.series.size(); ++i)
    start_ns[i + 1] = start_ns[i] + round_dur_ns(snap.series[i]);

  for (std::size_t i = 0; i < snap.series.size(); ++i) {
    const auto& r = snap.series[i];
    const std::uint64_t t0 = start_ns[i];
    JsonWriter w = trace_event("X", "round " + std::to_string(r.round), kPid,
                               kTidRounds, us(t0));
    w.key("dur").raw(us(round_dur_ns(r)));
    w.key("args")
        .begin_object()
        .field("active", r.active)
        .field("with_input", r.with_input)
        .field("delivered", r.delivered)
        .field("sent", r.sent)
        .field("wakeups", r.wakeups)
        .field("sweep", to_string(r.sweep))
        .end_object();
    event(out, first, w.end_object().take());
    if (r.step_ns + r.delivery_ns + r.bookkeep_ns > 0) {
      std::uint64_t t = t0;
      const std::pair<const char*, std::uint64_t> phases[] = {
          {"step", r.step_ns},
          {"delivery", r.delivery_ns},
          {"bookkeep", r.bookkeep_ns},
      };
      for (const auto& [name, ns] : phases) {
        if (ns == 0) continue;
        JsonWriter p = trace_event("X", name, kPid, kTidRounds, us(t));
        p.key("dur").raw(us(ns));
        event(out, first, p.end_object().take());
        t += ns;
      }
    }
  }

  // Spans on their own track, spanning their rounds on the same timeline.
  std::size_t idx = 0;
  for (const auto& s : snap.spans) {
    const std::uint64_t t0 = start_ns[std::min(idx, snap.series.size())];
    idx += s.rounds;
    const std::uint64_t t1 = start_ns[std::min(idx, snap.series.size())];
    JsonWriter w = trace_event("X", "run:" + s.name, kPid, kTidRuns, us(t0));
    w.key("dur").raw(us(t1 > t0 ? t1 - t0 : 1000));
    w.key("args")
        .begin_object()
        .field("rounds", s.rounds)
        .field("messages", s.messages)
        .field("wall_ns", s.wall_ns)
        .field("finished", s.finished)
        .end_object();
    event(out, first, w.end_object().take());
  }

  // Annotations as instant events at their round's start.
  for (const auto& a : snap.annotations) {
    std::size_t i = 0;  // round -> series index (rounds are globally sorted)
    while (i < snap.series.size() && snap.series[i].round != a.round) ++i;
    const std::uint64_t t0 = start_ns[std::min(i, snap.series.size())];
    JsonWriter w = trace_event("i", a.label, kPid, kTidRounds, us(t0));
    w.field("s", "t");
    event(out, first, w.end_object().take());
  }
  out << "\n]}\n";
}

}  // namespace fc::congest
