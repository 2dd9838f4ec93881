// Checks of the benchmark's own reporting rules (summary.h):
// the percentile rule, nearest-rank quantiles, and the generator-lag
// rule that rejects a run. Exits non-zero on the first failure.
//
//   servebench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "summary.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void PercentileRule() {
  using servebench::HighestSupportedQuantile;
  using servebench::SamplesBeyond;
  using servebench::SupportsP99;
  // p99 of n samples leaves n - ceil(0.99 n) beyond it.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(SamplesBeyond(100, 0.5) == 50);
  EXPECT(!SupportsP99(999));
  EXPECT(SupportsP99(1000));
  // The highest reported percentile keeps ten samples beyond it.
  EXPECT(HighestSupportedQuantile(19) == 0);
  EXPECT(HighestSupportedQuantile(20) == 0.5);
  EXPECT(HighestSupportedQuantile(99) == 0.5);
  EXPECT(HighestSupportedQuantile(100) == 0.9);
  EXPECT(HighestSupportedQuantile(1000) == 0.99);
  EXPECT(HighestSupportedQuantile(9999) == 0.99);
  EXPECT(HighestSupportedQuantile(10000) == 0.999);
  EXPECT(HighestSupportedQuantile(1000000) == 0.99999);
}

void Quantiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const servebench::Summary s = servebench::Summarize(&v);
  EXPECT(s.n == 100);
  EXPECT(s.p50 == 50);
  EXPECT(s.p99 == 99);
  EXPECT(s.max == 100);
  EXPECT(std::fabs(s.mean - 50.5) < 1e-12);
  EXPECT(s.top_q == 0.9);
  EXPECT(s.top == 90);
  std::vector<double> empty;
  EXPECT(servebench::Summarize(&empty).n == 0);
  EXPECT(std::isnan(servebench::Quantile(empty, 0.5)));
  EXPECT(servebench::Median({3, 1, 2}) == 2);
  EXPECT(servebench::Median({4, 1, 2, 3}) == 2.5);
}

void SendLagRule() {
  using servebench::kMaxSendLagShare;
  using servebench::SendLagAcceptable;
  const double from_send = 1000;
  EXPECT(SendLagAcceptable(from_send, from_send));
  EXPECT(SendLagAcceptable(from_send / (1 - kMaxSendLagShare) - 0.01, from_send));
  EXPECT(!SendLagAcceptable(from_send / (1 - kMaxSendLagShare) + 0.01, from_send));
  // A generator that sets a p99 twice the server's fails the run.
  EXPECT(!SendLagAcceptable(2 * from_send, from_send));
  EXPECT(SendLagAcceptable(0, 0));
}

}  // namespace

int main() {
  PercentileRule();
  Quantiles();
  SendLagRule();
  if (failures == 0) std::printf("servebench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
