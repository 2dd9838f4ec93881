#ifndef SERVEBENCH_SUMMARY_H_
#define SERVEBENCH_SUMMARY_H_

// Sample summaries under the benchmark's reporting rules:
//
//   * A timing is reported as its median and the highest percentile
//     that leaves at least kMinTailSamples samples beyond it, with the
//     sample count. latency_p99_us therefore needs >= 1000 samples.
//   * An open-loop run is valid only while the generator keeps to its
//     schedule. Latency is timed from the scheduled send, so the
//     generator's own lateness is charged to the server; each gated
//     latency figure must therefore stay within kMaxSendLagShare of the
//     same figure timed from the actual send.
//
// Header-only so the self-test links it without the library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace servebench {

inline constexpr size_t kMinTailSamples = 10;
/// Half the tightest latency bound in BENCHMARK.json (0.2), so the
/// generator alone cannot move a gated figure past its bound.
inline constexpr double kMaxSendLagShare = 0.1;

/// Nearest-rank quantile of an ascending sample, q in [0, 1]. NaN when
/// empty.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly above the nearest-rank q-quantile's position.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The highest of p50, p90, p99, p99.9, p99.99 and p99.999 that leaves
/// at least kMinTailSamples samples beyond it, as a fraction; 0 when
/// not even the median qualifies.
inline double HighestSupportedQuantile(size_t n) {
  static constexpr double kLadder[] = {0.5,   0.9,    0.99,
                                       0.999, 0.9999, 0.99999};
  double best = 0;
  for (double q : kLadder) {
    if (SamplesBeyond(n, q) >= kMinTailSamples) best = q;
  }
  return best;
}

inline bool SupportsP99(size_t n) {
  return SamplesBeyond(n, 0.99) >= kMinTailSamples;
}

/// Share of a latency figure timed from the scheduled send that the
/// generator's lateness accounts for, given the same figure timed from
/// the actual send.
inline double SendLagShare(double from_due_us, double from_send_us) {
  return from_due_us > 0 ? 1 - from_send_us / from_due_us : 0;
}

/// True when the generator kept close enough to its schedule for the
/// latency figure it measured to be the server's.
inline bool SendLagAcceptable(double from_due_us, double from_send_us) {
  return SendLagShare(from_due_us, from_send_us) <= kMaxSendLagShare;
}

struct Summary {
  size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  /// HighestSupportedQuantile(n) and the sample value there.
  double top_q = 0;
  double top = 0;
  double max = 0;
};

/// Sorts `samples` in place and summarises them.
inline Summary Summarize(std::vector<double>* samples) {
  Summary s;
  s.n = samples->size();
  if (s.n == 0) return s;
  std::sort(samples->begin(), samples->end());
  double sum = 0;
  for (double v : *samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  s.p50 = Quantile(*samples, 0.5);
  s.p99 = Quantile(*samples, 0.99);
  s.max = samples->back();
  s.top_q = HighestSupportedQuantile(s.n);
  s.top = s.top_q > 0 ? Quantile(*samples, s.top_q) : s.max;
  return s;
}

/// Median of a small set (used for repeated set-ups).
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace servebench

#endif  // SERVEBENCH_SUMMARY_H_
