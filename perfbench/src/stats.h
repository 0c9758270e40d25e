// Sample statistics and the per-cycle tally the workloads fill.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Latencies in 1 ns buckets up to 100 us (anything slower lands in the last
// bucket). Holds the reader thread's millions of samples in fixed memory,
// allocated at the first sample.
class NanosHistogram {
 public:
  void Record(int64_t ns);
  void Merge(const NanosHistogram& other);
  uint64_t count() const { return count_; }
  // Quantile in nanoseconds, interpolated uniformly inside the bucket that
  // holds the rank; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;  // Empty until the first sample.
  uint64_t count_ = 0;
};

// What one cycle of a workload measured. Timings are seconds.
struct Tally {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> totals;
  std::map<std::string, double> maxima;

  void Sample(const std::string& key, double value) { samples[key].push_back(value); }
  void Add(const std::string& key, double value) { totals[key] += value; }
  void Max(const std::string& key, double value);
  double Total(const std::string& key) const;
  double Maximum(const std::string& key) const;
  const std::vector<double>& Samples(const std::string& key) const;
  void Merge(const Tally& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
