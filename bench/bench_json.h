// Machine-readable benchmark results.
//
// The google-benchmark binaries (bench_journal_micro, bench_sim_scale) print
// the usual console table and additionally write a BENCH_<name>.json file:
// per-benchmark name / iterations / ns-per-op, plus the key telemetry
// counters accumulated over the whole run, so CI can trend both timing and
// work volume (e.g. "ns per store" next to "stores performed").

#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"

namespace fremont::benchjson {

struct BenchResult {
  std::string name;
  int64_t iterations = 0;
  double ns_per_op = 0.0;
};

// Console reporter that also retains every per-iteration run.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      BenchResult result;
      result.name = run.benchmark_name();
      result.iterations = static_cast<int64_t>(run.iterations);
      if (run.iterations > 0) {
        result.ns_per_op =
            run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations);
      }
      results_.push_back(std::move(result));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  std::vector<BenchResult> results_;
};

// Writes BENCH_<name>.json. `counter_names` selects which telemetry counters
// to embed (their totals over every benchmark iteration in the process).
inline bool WriteBenchJson(const std::string& path, const std::vector<BenchResult>& results,
                           const std::vector<telemetry::MetricName>& counter_names) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\"schema\": \"fremont.bench.v1\",\n \"benchmarks\": [");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out, "%s\n  {\"name\": \"%s\", \"iterations\": %lld, \"ns_per_op\": %.1f}",
                 i == 0 ? "" : ",", telemetry::JsonEscape(results[i].name).c_str(),
                 static_cast<long long>(results[i].iterations), results[i].ns_per_op);
  }
  std::fprintf(out, "],\n \"telemetry\": {");
  auto& registry = telemetry::MetricsRegistry::Global();
  for (size_t i = 0; i < counter_names.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                 telemetry::JsonEscape(counter_names[i].c_str()).c_str(),
                 static_cast<unsigned long long>(registry.GetCounter(counter_names[i])->value()));
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
  return true;
}

}  // namespace fremont::benchjson

#endif  // BENCH_BENCH_JSON_H_
