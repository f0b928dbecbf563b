#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

int Tracer::open(std::string name, std::uint64_t op_id, bool root,
                 bool is_op) {
  Span s;
  s.name = std::move(name);
  s.op = op_id;
  s.is_op = is_op;
  if (!root && !stack_.empty()) {
    s.parent = stack_.back();
    spans_[static_cast<std::size_t>(s.parent)].has_children = true;
  }
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::sum(std::size_t from, std::string_view name,
                   std::string_view arg) const {
  double total = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    if (arg.empty()) {
      total += s.ms();
      continue;
    }
    for (const auto& [key, value] : s.args)
      if (key == arg) total += value;
  }
  return total;
}

Tracer::Attribution Tracer::attribution(std::size_t from) const {
  // Leaves of an operation never overlap (spans nest by scope), so their
  // summed time is the covered part of the operation.
  std::vector<std::uint8_t> in_op(spans_.size(), 0);
  Attribution a;
  double covered = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      in_op[i] = s.is_op;
      if (s.is_op) a.op_ms += s.ms();
      continue;
    }
    in_op[i] = in_op[static_cast<std::size_t>(s.parent)];
    if (in_op[i] && !s.has_children) covered += s.ms();
  }
  a.unattributed_ms = a.op_ms - covered;
  return a;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  fc::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("ts", static_cast<double>(s.start_ns) * 1e-3)
        .field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .field("pid", std::uint64_t{1})
        .field("tid", std::uint64_t{1});
    w.key("args").begin_object();
    w.field("span", std::uint64_t{i})
        .field("parent", std::int64_t{s.parent})
        .field("op", s.op);
    for (const auto& [key, value] : s.args) w.field(key, value);
    w.end_object().end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
