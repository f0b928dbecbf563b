#pragma once
// Span recorder of the benchmark's traced mode.
//
// A span is one timed call into a repository layer: name, start, end, the
// span that contains it, and the id of the benchmark operation it belongs
// to. Spans nest by scope: Tracer::op() opens an operation's root span,
// span() opens a child of the innermost open span, and each Scope closes
// its span when it goes out of scope. probe() opens a root that is not an
// operation: work the traced mode adds to measure a stage in isolation,
// kept out of the operation totals and the attribution figures.
//
// Spans stay in memory and are written once, at exit, as a Chrome
// trace-event file (viewable in Perfetto).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span; -1 for a root
  std::uint64_t op = 0;
  bool is_op = false;  // root of a benchmark operation (not a probe)
  bool has_children = false;
  std::vector<std::pair<std::string, double>> args;  // counts at this call

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, int index) : tracer_(&t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_->close(index_); }

    /// Attach a count measured by this call (rounds, messages, bytes).
    void arg(std::string key, double value) {
      tracer_->spans_[static_cast<std::size_t>(index_)].args.emplace_back(
          std::move(key), value);
    }
    /// Rename once the call's outcome is known (e.g. a pool hit or miss).
    void rename(std::string name) {
      tracer_->spans_[static_cast<std::size_t>(index_)].name = std::move(name);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer() : epoch_(Clock::now()) {}

  Scope op(std::string name, std::uint64_t op_id) {
    return Scope(*this, open(std::move(name), op_id, /*root=*/true, true));
  }
  Scope probe(std::string name, std::uint64_t op_id) {
    return Scope(*this, open(std::move(name), op_id, /*root=*/true, false));
  }
  Scope span(std::string name) {
    const std::uint64_t op =
        stack_.empty() ? 0 : spans_[static_cast<std::size_t>(stack_.back())].op;
    return Scope(*this, open(std::move(name), op, /*root=*/false, false));
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Sum over spans [from, size()) named `name`: their durations in ms when
  /// `arg` is empty, otherwise the named count.
  double sum(std::size_t from, std::string_view name,
             std::string_view arg = {}) const;

  /// Time of the operation roots in [from, size()), and the part of it that
  /// no leaf span (a timed call with no timed calls inside) covers.
  struct Attribution {
    double op_ms = 0;
    double unattributed_ms = 0;
  };
  Attribution attribution(std::size_t from) const;

  /// Write every span as a Chrome trace-event JSON document.
  void write_chrome_trace(const std::string& path) const;

 private:
  int open(std::string name, std::uint64_t op_id, bool root, bool is_op);
  void close(int index);

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

}  // namespace perfbench
