#include "src/telemetry/metrics.h"

#include <algorithm>

namespace fremont::telemetry {
namespace {

std::vector<int64_t> SortedUniqueBounds(std::vector<int64_t> bounds) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(SortedUniqueBounds(std::move(bounds))),
      bucket_counts_(bounds_.size() + 1) {}

void Histogram::Observe(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  bucket_counts_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  int64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

int64_t Histogram::min() const {
  const int64_t value = min_.load(std::memory_order_relaxed);
  return value == kEmptyMin ? 0 : value;
}

int64_t Histogram::max() const {
  const int64_t value = max_.load(std::memory_order_relaxed);
  return value == kEmptyMax ? 0 : value;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out;
  out.reserve(bucket_counts_.size());
  for (const auto& bucket : bucket_counts_) {
    out.push_back(bucket.load(std::memory_order_relaxed));
  }
  return out;
}

double Histogram::ApproxPercentile(double p) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  if (total == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the requested observation, 1-based.
  const double rank = std::max(1.0, p * static_cast<double>(total));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      continue;
    }
    const uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) {
      continue;
    }
    // The rank lands in bucket i, spanning (lo, hi]. Tighten the open edges
    // with the observed extremes so degenerate histograms stay exact.
    double lo = i == 0 ? static_cast<double>(min()) : static_cast<double>(bounds_[i - 1]);
    double hi = i < bounds_.size() ? static_cast<double>(bounds_[i])
                                   : static_cast<double>(max());
    lo = std::max(lo, static_cast<double>(min()));
    hi = std::min(hi, static_cast<double>(max()));
    if (hi < lo) {
      hi = lo;
    }
    const double within = (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * within;
  }
  return static_cast<double>(max());
}

void Histogram::Reset() {
  for (auto& bucket : bucket_counts_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::GetCounter(MetricName name) {
  const MutexLock lock(mutex_);
  return &counters_[name.c_str()];
}

Gauge* MetricsRegistry::GetGauge(MetricName name) {
  const MutexLock lock(mutex_);
  return &gauges_[name.c_str()];
}

Histogram* MetricsRegistry::GetHistogram(MetricName name, std::vector<int64_t> bounds) {
  const MutexLock lock(mutex_);
  return &histograms_.try_emplace(name.c_str(), std::move(bounds)).first->second;
}

void MetricsRegistry::Reset() {
  const MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter.Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    (void)name;
    histogram.Reset();
  }
}

std::vector<int64_t> DurationBucketsMicros() {
  return {1000,        10000,      100000,      1000000,
          10000000,    60000000,   600000000,   3600000000LL};
}

}  // namespace fremont::telemetry
