// Sample statistics for the benchmark: the median, and a per-call
// latency recorder for its own timing of Assign and KNearestCentroids.
// The recorder keeps 1-ns bins up to 65.5 us (exact ranks for millions
// of samples in constant memory) plus an exact overflow list for the
// rare slow call. Not thread-safe; each reader thread owns one and the
// repetition merges them.
#ifndef BIRCH_PERFBENCH_LATENCY_H_
#define BIRCH_PERFBENCH_LATENCY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of a sample; 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

class LatencyHist {
 public:
  static constexpr int64_t kBins = int64_t{1} << 16;

  LatencyHist() : bins_(kBins, 0) {}

  void Add(int64_t ns) {
    ns = std::max<int64_t>(ns, 0);
    if (ns < kBins) {
      ++bins_[static_cast<size_t>(ns)];
    } else {
      overflow_.push_back(ns);
    }
    ++count_;
  }

  void Merge(const LatencyHist& other) {
    for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile in microseconds. Inside a 1-ns bin the rank is
  /// interpolated linearly, so the result keeps sub-ns digits instead of
  /// snapping to whole nanoseconds. 0 when empty.
  double QuantileUs(double q) const {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double cum = 0.0;
    for (size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] == 0) continue;
      const double next = cum + static_cast<double>(bins_[i]);
      if (next >= target) {
        const double frac = (target - cum) / static_cast<double>(bins_[i]);
        return (static_cast<double>(i) + frac) / 1e3;
      }
      cum = next;
    }
    std::vector<int64_t> tail = overflow_;
    std::sort(tail.begin(), tail.end());
    const size_t idx = std::min(
        tail.size() - 1,
        static_cast<size_t>(std::max(0.0, std::ceil(target - cum) - 1.0)));
    return static_cast<double>(tail[idx]) / 1e3;
  }

 private:
  std::vector<uint64_t> bins_;
  std::vector<int64_t> overflow_;
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // BIRCH_PERFBENCH_LATENCY_H_
