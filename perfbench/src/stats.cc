#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

constexpr size_t kHistogramBuckets = 100'000;

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void NanosHistogram::Record(int64_t ns) {
  if (buckets_.empty()) {
    buckets_.resize(kHistogramBuckets);
  }
  const size_t bucket =
      static_cast<size_t>(std::clamp<int64_t>(ns, 0, static_cast<int64_t>(kHistogramBuckets - 1)));
  ++buckets_[bucket];
  ++count_;
}

void NanosHistogram::Merge(const NanosHistogram& other) {
  if (buckets_.empty()) {
    buckets_.resize(kHistogramBuckets);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double NanosHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  uint64_t below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t here = buckets_[i];
    if (here > 0 && static_cast<double>(below + here) >= rank) {
      return static_cast<double>(i) + (rank - static_cast<double>(below)) / static_cast<double>(here);
    }
    below += here;
  }
  return static_cast<double>(buckets_.size());
}

void Tally::Max(const std::string& key, double value) {
  auto [it, inserted] = maxima.emplace(key, value);
  if (!inserted) {
    it->second = std::max(it->second, value);
  }
}

double Tally::Total(const std::string& key) const {
  const auto it = totals.find(key);
  return it == totals.end() ? 0.0 : it->second;
}

double Tally::Maximum(const std::string& key) const {
  const auto it = maxima.find(key);
  return it == maxima.end() ? 0.0 : it->second;
}

const std::vector<double>& Tally::Samples(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = samples.find(key);
  return it == samples.end() ? kEmpty : it->second;
}

void Tally::Merge(const Tally& other) {
  for (const auto& [key, values] : other.samples) {
    auto& mine = samples[key];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  for (const auto& [key, value] : other.totals) {
    totals[key] += value;
  }
  for (const auto& [key, value] : other.maxima) {
    Max(key, value);
  }
}

}  // namespace perfbench
