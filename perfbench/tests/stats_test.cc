// Self-test of the exact percentile code (stats.h). Exits nonzero if any
// expectation fails; run.py runs it after every build.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<int> Shuffled(int n) {
  std::vector<int> v;
  for (int i = 1; i <= n; ++i) v.push_back((i * 7919) % n + 1);  // 1..n
  return v;
}

}  // namespace

int main() {
  using perfbench::ExactQuantile;

  std::vector<int> empty;
  const auto e = ExactQuantile(empty, 0.5);
  Expect(e.count == 0 && !e.reported && e.value == 0, "empty sample");

  // Nearest rank: p50 of 1..100 is 50, p99 is 99 with one sample beyond.
  std::vector<int> hundred = Shuffled(100);
  const auto p50 = ExactQuantile(hundred, 0.5);
  Expect(p50.value == 50 && p50.beyond == 50 && p50.reported, "p50 of 1..100");
  const auto p99_small = ExactQuantile(hundred, 0.99);
  Expect(p99_small.value == 99 && p99_small.beyond == 1, "p99 of 1..100");
  Expect(!p99_small.reported, "p99 of 100 samples is not reported");

  // p99 needs at least 10 samples beyond it: 1000 samples is the minimum.
  std::vector<int> thousand = Shuffled(1000);
  const auto p99 = ExactQuantile(thousand, 0.99);
  Expect(p99.value == 990 && p99.beyond == 10 && p99.reported,
         "p99 of 1..1000");
  std::vector<int> short_of = Shuffled(999);
  const auto p99_short = ExactQuantile(short_of, 0.99);
  Expect(p99_short.value == 990 && p99_short.beyond == 9 &&
             !p99_short.reported,
         "p99 of 1..999");

  // Exact, not bucketed: a value between powers of two comes back verbatim.
  std::vector<int> odd = {1000, 1001, 1500, 1999, 2049};
  Expect(ExactQuantile(odd, 0.5).value == 1500, "median is a sample");
  Expect(ExactQuantile(odd, 1.0).value == 2049, "q=1 is the max");

  std::vector<double> setups = {0.9, 0.7, 0.8};
  const auto median3 = ExactQuantile(setups, 0.5);
  Expect(median3.value == 0.8 && median3.reported,
         "a median needs no samples beyond it");
  Expect(perfbench::Mean(std::vector<int>{1, 2, 3, 6}) == 3, "mean");
  Expect(perfbench::Ratio(1, 0) == 0, "ratio with zero base");

  // The fixed-memory recorder agrees exactly with the sorted-sample rule,
  // on both sides of its direct-count range.
  perfbench::ExactLatency a;
  std::vector<uint64_t> all;
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Mostly below 1 ms, one in eight up to ~4 ms.
    const uint64_t ns = i % 8 == 0 ? x % (4u << 20) : x % 300000;
    a.Add(ns);
    all.push_back(ns);
  }
  Expect(a.count() == all.size(), "recorder keeps every sample");
  for (double q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto want = ExactQuantile(all, q);
    const auto got = a.At(q);
    Expect(got.value == want.value && got.beyond == want.beyond &&
               got.reported == want.reported,
           "recorder quantile equals the exact quantile");
  }

  a.Reset();
  a.Add(7);
  const auto one = a.At(0.5);
  Expect(a.count() == 1 && one.value == 7, "reset empties the recorder");

  if (failures == 0) std::printf("stats self-test passed\n");
  return failures == 0 ? 0 : 1;
}
