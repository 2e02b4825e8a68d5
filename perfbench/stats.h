#ifndef CPR_PERFBENCH_STATS_H_
#define CPR_PERFBENCH_STATS_H_

// Exact order statistics over the benchmark's own samples. The repo's log2
// histograms report bucket upper bounds (up to 2x off), so every latency the
// benchmark prints is computed here from raw samples instead.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// A percentile above the median is only meaningful when enough samples lie
// beyond it.
inline constexpr uint64_t kMinSamplesBeyond = 10;

struct Quantile {
  double value = 0;      // the sample at the nearest rank (0 when count == 0)
  uint64_t count = 0;    // samples the quantile was taken over
  uint64_t beyond = 0;   // samples strictly after the chosen rank
  // count > 0, and for q above the median beyond >= kMinSamplesBeyond.
  bool reported = false;
};

// Nearest-rank quantile, q in (0, 1]: the ceil(q*n)-th smallest sample.
// Reorders `samples` (nth_element) but keeps every value.
template <typename T>
Quantile ExactQuantile(std::vector<T>& samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  const double n = static_cast<double>(samples.size());
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * n));
  rank = std::clamp<uint64_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  out.value = static_cast<double>(*nth);
  out.beyond = samples.size() - rank;
  out.reported = q <= 0.5 || out.beyond >= kMinSamplesBeyond;
  return out;
}

// Latency samples kept exactly in fixed memory: one counter per nanosecond
// below kDirectNs, raw values above it. Memory does not grow with the
// number of samples (the process's peak RSS is a benchmark metric), and
// quantiles stay exact.
class ExactLatency {
 public:
  static constexpr uint64_t kDirectNs = uint64_t{1} << 20;  // ~1.05 ms

  ExactLatency() : counts_(kDirectNs, 0) {}

  void Add(uint64_t ns) {
    if (ns < kDirectNs) {
      ++counts_[ns];
      ++direct_;
      max_direct_ = std::max(max_direct_, ns);
    } else {
      overflow_.push_back(ns);
    }
  }

  // Empties the recorder, touching only the counters in use.
  void Reset() {
    std::fill(counts_.begin(),
              counts_.begin() + static_cast<std::ptrdiff_t>(max_direct_ + 1),
              0);
    direct_ = 0;
    max_direct_ = 0;
    overflow_.clear();
  }

  uint64_t count() const { return direct_ + overflow_.size(); }

  // Same nearest-rank rule (and reporting rule) as ExactQuantile.
  Quantile At(double q) const {
    Quantile out;
    out.count = count();
    if (out.count == 0) return out;
    const double n = static_cast<double>(out.count);
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * n));
    rank = std::clamp<uint64_t>(rank, 1, out.count);
    if (rank <= direct_) {
      uint64_t seen = 0;
      for (uint64_t ns = 0; ns <= max_direct_; ++ns) {
        seen += counts_[ns];
        if (seen >= rank) {
          out.value = static_cast<double>(ns);
          break;
        }
      }
    } else {
      std::vector<uint64_t> over = overflow_;
      const auto nth =
          over.begin() + static_cast<std::ptrdiff_t>(rank - direct_ - 1);
      std::nth_element(over.begin(), nth, over.end());
      out.value = static_cast<double>(*nth);
    }
    out.beyond = out.count - rank;
    out.reported = q <= 0.5 || out.beyond >= kMinSamplesBeyond;
    return out;
  }

 private:
  std::vector<uint32_t> counts_;
  uint64_t direct_ = 0;      // samples in counts_
  uint64_t max_direct_ = 0;  // highest index of counts_ in use
  std::vector<uint64_t> overflow_;
};

template <typename T>
double Mean(const std::vector<T>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const T& v : samples) sum += static_cast<double>(v);
  return sum / static_cast<double>(samples.size());
}

// Ratio that reads 0 instead of NaN when nothing was counted.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // CPR_PERFBENCH_STATS_H_
