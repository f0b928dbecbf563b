#pragma once
// Shared pieces of the benchmark client: the op ledger behind `attempted` /
// `failed`, nearest-rank percentiles, and the metric list a lane reports.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace perfbench {

/// Operations attempted and failed. A failed check fails its operation; the
/// first failures are printed to stderr so a red run says why.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Record one operation whose checks produced `problems` (empty = ok).
  void record(const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    if (failed <= 10)
      for (const std::string& p : problems)
        std::cerr << "perfbench: check failed: " << p << "\n";
  }
};

/// Nearest-rank percentile (p in (0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;  // values the statistic was taken over
};
using Metrics = std::vector<Metric>;

}  // namespace perfbench
