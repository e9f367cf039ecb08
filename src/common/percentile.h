// Nearest-rank percentiles and latency summaries -- the ONE definition
// every serving report in the repo uses (ServerMetrics in src/serve, the
// serving benches via bench/bench_util.h) -- plus the fixed-memory ring of
// recent samples ServerMetrics summarizes.
//
// Nearest-rank: for integer percent p in (0, 100], the value at 1-based
// rank ceil(p/100 * n) of the ascending-sorted sample.  Integer arithmetic
// throughout -- ceil(0.95 * 20) computed in doubles lands on 19.0000...02
// and rounds the rank UP, silently reporting the max instead of the 19th
// value; (n*p + 99)/100 cannot.  For tiny samples the high percentiles
// degenerate to the max, which nearest-rank defines them to be.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace mpipu {

/// Percentile of an ascending-sorted, non-empty sample (0.0 when empty).
/// `pct` is an integer percent in (0, 100].
inline double percentile_nearest_rank_sorted(const std::vector<double>& sorted,
                                             int pct) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t rank = (n * static_cast<size_t>(pct) + 99) / 100;
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

/// The latency digest every serving surface reports: count, mean, and the
/// nearest-rank p50/p95/p99 tail.
struct LatencySummary {
  size_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

/// Summarize a sample of latencies (seconds).  Takes the samples by value:
/// the summary sorts its own copy, leaving the caller's recording order
/// intact.
inline LatencySummary summarize_latencies(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean_s = sum / static_cast<double>(samples.size());
  s.p50_s = percentile_nearest_rank_sorted(samples, 50);
  s.p95_s = percentile_nearest_rank_sorted(samples, 95);
  s.p99_s = percentile_nearest_rank_sorted(samples, 99);
  s.max_s = samples.back();
  return s;
}

/// The most recent `capacity` samples in fixed memory: once full, each
/// record() overwrites the oldest, so a digest over snapshot() follows the
/// current traffic instead of freezing on the first samples ever seen.
class LatencyRing {
 public:
  explicit LatencyRing(size_t capacity) : capacity_(capacity) {}

  void record(double v) {
    if (capacity_ == 0) return;
    if (samples_.size() < capacity_) {
      samples_.push_back(v);
    } else {
      samples_[next_] = v;
    }
    next_ = (next_ + 1) % capacity_;
  }

  /// The retained samples, oldest first.
  std::vector<double> snapshot() const {
    std::vector<double> out(samples_.begin() + static_cast<std::ptrdiff_t>(next_),
                            samples_.end());
    out.insert(out.end(), samples_.begin(),
               samples_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

  size_t size() const { return samples_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  std::vector<double> samples_;
  size_t next_ = 0;  ///< the slot the next record() writes
};

}  // namespace mpipu
