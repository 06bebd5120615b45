#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

// Timing and order statistics shared by the benchmark's phases.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

// Median of `values` (mean of the middle two for an even count); 0 for
// an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

// Minimum number of samples that must lie beyond a reported percentile.
constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank `q`-quantile (0 < q < 1) of `values`, reported only when
// at least kMinSamplesBeyond samples lie above it; nullopt otherwise.
inline std::optional<double> SupportedQuantile(std::vector<double> values,
                                               double q) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
