// Metrics registry: counters, gauges, and fixed-bucket histograms.
//
// Every subsystem (the Explorer Modules, the Journal client and server, the
// Discovery Manager, the simulator's event queue) registers its metrics here
// under a "<module>/<metric>" name, e.g. "seqping/packets_sent" or
// "journal_server/ops_store_interface". A name is a typed MetricName from
// src/telemetry/names.h; the registry takes no string literal and no
// std::string, so the compiler rejects an undeclared name. Hot paths cache
// the instrument pointer so the name lookup happens once.
//
// Thread safety: instrument updates are relaxed atomics (a counter bump is
// one fetch_add; gauge/histogram extremes are CAS loops), and registration
// is mutex-guarded over node-based maps, so previously returned pointers
// stay valid while other threads register. This is the contract the
// multi-threaded event queue (ROADMAP item 2) needs: readers see values that
// are exact once writers quiesce, and exporters hold export_mutex() for a
// consistent walk of the instrument set — the iteration accessors carry
// FREMONT_REQUIRES annotations, so Clang's thread-safety analysis rejects an
// unlocked walk at compile time.
//
// Exporters (src/telemetry/export.h) walk the registry to produce the text
// dump and the stable JSON document consumed by fremont_report --telemetry.

#ifndef SRC_TELEMETRY_METRICS_H_
#define SRC_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "src/telemetry/names.h"
#include "src/util/thread_annotations.h"

namespace fremont::telemetry {

// Monotonic event count. Set() exists only to import snapshots taken by
// subsystems that keep their own tallies (e.g. Logging's warning count).
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (queue depth, record count). Tracks its high- and
// low-water marks so a one-shot export still shows the extremes — both are
// relative to the initial level 0, so a gauge that only ever rises keeps
// min 0 and one that dips below its start is observable through min.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    UpdateExtremes(value);
  }
  void Add(int64_t delta) {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateExtremes(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max_value() const { return max_value_.load(std::memory_order_relaxed); }
  int64_t min_value() const { return min_value_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_value_.store(0, std::memory_order_relaxed);
    min_value_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateExtremes(int64_t value) {
    int64_t seen = max_value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_value_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
    seen = min_value_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_value_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_value_{0};
  std::atomic<int64_t> min_value_{0};
};

// Fixed-bucket histogram. Bucket i counts observations with
// value <= bounds[i]; one implicit overflow bucket counts the rest.
// Bounds are fixed at construction; all tallies are relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  // 0 while empty, like the pre-atomic histogram.
  int64_t min() const;
  int64_t max() const;
  const std::vector<int64_t>& bounds() const { return bounds_; }
  // Snapshot; size() == bounds().size() + 1 (last is overflow).
  std::vector<uint64_t> bucket_counts() const;
  // Linear-interpolated percentile estimate from the bucket tallies,
  // p in [0, 1] (0.5 = median). Edge buckets are tightened by the observed
  // min/max, so a single-valued histogram reports that value exactly.
  // Returns 0 while empty.
  double ApproxPercentile(double p) const;
  void Reset();

 private:
  static constexpr int64_t kEmptyMin = INT64_MAX;
  static constexpr int64_t kEmptyMax = INT64_MIN;

  const std::vector<int64_t> bounds_;
  std::vector<std::atomic<uint64_t>> bucket_counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{kEmptyMin};
  std::atomic<int64_t> max_{kEmptyMax};
};

// Name-keyed instrument store. Returned pointers stay valid until Reset():
// hot paths fetch once and increment through the pointer. Registration and
// iteration are mutex-guarded; the maps are node-based, so pointers handed
// out earlier survive concurrent registration.
class MetricsRegistry {
 public:
  // The process-wide registry everything instruments against by default.
  static MetricsRegistry& Global();

  // Each instrument is named by a MetricName (names.h). A string literal
  // selects one of the deleted overloads below and a std::string matches no
  // overload, so an undeclared or hand-composed name fails to compile.
  Counter* GetCounter(MetricName name) FREMONT_EXCLUDES(mutex_);
  Gauge* GetGauge(MetricName name) FREMONT_EXCLUDES(mutex_);
  // The first caller fixes the bucket bounds; later calls with the same name
  // return the existing histogram regardless of `bounds`.
  Histogram* GetHistogram(MetricName name, std::vector<int64_t> bounds) FREMONT_EXCLUDES(mutex_);
  template <size_t N>
  Counter* GetCounter(const char (&)[N]) = delete;
  template <size_t N>
  Gauge* GetGauge(const char (&)[N]) = delete;
  template <size_t N>
  Histogram* GetHistogram(const char (&)[N], std::vector<int64_t> bounds) = delete;

  // A names:: constant the caller holds as a plain const char* (the
  // benchmark harness reads counters through one). Constrained to exactly
  // that type, so neither a literal nor a std::string reaches it.
  template <std::same_as<const char*> Pointer>
  Counter* GetCounter(Pointer name) FREMONT_EXCLUDES(mutex_) {
    return GetCounter(MetricName(name));
  }

  // Ordered iteration for the exporters (std::map keeps names sorted, which
  // is what makes the JSON export stable). Callers must hold export_mutex()
  // for the whole walk; shared suffices since iteration only reads the maps
  // (instrument cells themselves are atomics).
  const std::map<std::string, Counter>& counters() const FREMONT_REQUIRES_SHARED(mutex_) {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const FREMONT_REQUIRES_SHARED(mutex_) {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const FREMONT_REQUIRES_SHARED(mutex_) {
    return histograms_;
  }

  // The registration lock. Holding it (e.g. `const MutexLock lock(
  // registry.export_mutex());`) blocks registration — not updates, those are
  // atomic — giving exporters a stable instrument set to walk. Beware that
  // GetCounter/GetGauge/GetHistogram acquire this same mutex: release the
  // export hold before registering.
  Mutex& export_mutex() const FREMONT_RETURN_CAPABILITY(mutex_) { return mutex_; }

  // Zeroes every instrument in place (tests; fresh measurement windows).
  // Previously returned pointers remain valid — hot paths that cached an
  // instrument keep writing to the same, now-zeroed cell.
  void Reset() FREMONT_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, Counter> counters_ FREMONT_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ FREMONT_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ FREMONT_GUARDED_BY(mutex_);
};

// Duration bucket bounds shared by the per-module run-time histograms
// (microseconds: 1ms, 10ms, 100ms, 1s, 10s, 1m, 10m, 1h).
std::vector<int64_t> DurationBucketsMicros();

// The instruments of one keyed family (names.h) whose keys are the values of
// an enum: one counter per Journal request type, one latency histogram per
// view. Get(key) resolves the key's instrument from the global registry on
// first use and reads it from an atomic slot after that, so the hot path
// builds no name and takes no registry mutex, and a key never used exports
// no instrument. Racing first uses are benign: the registry hands back one
// stable pointer per name, and the atomic slot publishes it to threads that
// never took the registry mutex. Histograms get DurationBucketsMicros()
// bounds.
template <typename Instrument, typename Key, size_t kKeys>
class KeyedInstruments {
 public:
  // `key_name` spells a key as the family's members want it
  // (RequestTypeName, ViewKindName).
  constexpr KeyedInstruments(KeyedMetricName family, const char* (*key_name)(Key))
      : family_(family), key_name_(key_name) {}

  Instrument* Get(Key key) {
    std::atomic<Instrument*>& slot = slots_[static_cast<size_t>(key)];
    Instrument* instrument = slot.load();
    if (instrument == nullptr) {
      instrument = Resolve(family_.WithKey(key_name_(key)));
      slot.store(instrument);
    }
    return instrument;
  }

 private:
  static Instrument* Resolve(MetricName name) {
    if constexpr (std::is_same_v<Instrument, Histogram>) {
      return MetricsRegistry::Global().GetHistogram(name, DurationBucketsMicros());
    } else {
      return MetricsRegistry::Global().GetCounter(name);
    }
  }

  const KeyedMetricName family_;
  const char* (*const key_name_)(Key);
  std::array<std::atomic<Instrument*>, kKeys> slots_{};
};

}  // namespace fremont::telemetry

#endif  // SRC_TELEMETRY_METRICS_H_
