// fremont_perfbench: runs one benchmark workload and prints its metrics.
//
//   fremont_perfbench --workload campus|sharded_sweep|journal_serve
//                     --seed N --seconds S --trace 0|1 --out DIR [--spans FILE]
//
// Repeats cycles of the workload (fresh set-up at the seed, then a fixed
// amount of work): at least three, and more while another fits in S seconds.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced cycles (at least two of each) and prints
// the per-layer metrics from the traced ones, plus the tracing overhead.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is 1 when an output check failed, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/span_log.h"
#include "perfbench/src/workloads.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;  // What the value rests on, e.g. "1500 samples"; empty for counts.
};

const char* const kLayers[] = {"bench",   "sim",   "explorer", "runtime",  "manager",
                               "journal", "analysis", "serve", "replicate"};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Restarts the process's peak resident set (Linux), so that each cycle's
// peak reads on its own. A cycle's peak varies by ~10% with thread timing;
// a run-long peak kept the worst cycle and grew with the cycle count.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Peak resident set in MB since the last reset: VmHWM, or getrusage's
// run-long peak where /proc is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t RegistryCounter(const char* name) {
  return fremont::telemetry::MetricsRegistry::Global().GetCounter(name)->value();
}

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit, std::string basis = "") {
    metrics_.push_back(
        {std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit), std::move(basis)});
  }
  // p50 and p99 of `seconds`, scaled to `unit`.
  void AddPercentiles(const std::string& stem, const std::vector<double>& seconds,
                      const std::string& unit, double scale) {
    const std::string basis = std::to_string(seconds.size()) + " samples";
    Add(stem + "_p50", Quantile(seconds, 0.50) * scale, unit, basis);
    Add(stem + "_p99", Quantile(seconds, 0.99) * scale, unit, basis);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Set-up time, peak RSS, rates and p50s are the median over the run's cycles of each
// cycle's own figure, so one cycle caught in a burst of host load does not
// move them. A p99 needs at least ten samples beyond it, more than one cycle
// holds, so each p99 is taken over the samples of all cycles pooled.
// View reads arrive as each cycle's p50 and the pooled histogram: main keeps
// no cycle's histogram, so peak RSS does not grow with the cycle count.
void EndToEnd(const std::vector<Cycle>& cycles, const std::vector<double>& view_read_p50_ns,
              const NanosHistogram& view_reads, MetricList& out) {
  std::map<std::string, std::vector<double>> per_cycle;
  std::map<std::string, std::vector<double>> pooled;
  for (const Cycle& cycle : cycles) {
    const Tally& t = cycle.tally;
    per_cycle["setup_s"].push_back(cycle.setup_s);
    per_cycle["peak_rss_mb"].push_back(cycle.peak_rss_mb);
    per_cycle["sim_s_per_wall_s"].push_back(Median(t.Samples("sim_s_per_wall_s")));
    per_cycle["sweep_wall_s"].push_back(Median(t.Samples("sweep_wall_s")));
    per_cycle["ingest_obs_per_s"].push_back(Ratio(t.Total("ingest.obs"), t.Total("ingest.wall_s")));
    for (const char* key : {"analysis_pass_s", "report_s", "replicate_s"}) {
      const std::vector<double>& seconds = t.Samples(key);
      per_cycle[key].push_back(Median(seconds));
      pooled[key].insert(pooled[key].end(), seconds.begin(), seconds.end());
    }
  }
  per_cycle["view_read_ns"] = view_read_p50_ns;
  const std::string n = std::to_string(cycles.size());
  auto median_of = [&](const std::string& key, double scale, const std::string& each) {
    return std::pair{Median(per_cycle[key]) * scale, "median of " + n + " cycles" + each};
  };
  auto pooled_p99 = [&](const std::string& key) {
    return std::pair{Quantile(pooled[key], 0.99) * 1e3,
                     std::to_string(pooled[key].size()) + " samples pooled"};
  };
  const std::string per_generation =
      " of " + std::to_string(kServingGenerations) + " generations";
  auto add = [&](const char* name, const char* unit, const std::pair<double, std::string>& figure) {
    out.Add(name, figure.first, unit, figure.second);
  };
  add("setup_s", "s", median_of("setup_s", 1.0, ""));
  add("peak_rss_mb", "MB", median_of("peak_rss_mb", 1.0, ""));
  add("sim_s_per_wall_s", "s/s", median_of("sim_s_per_wall_s", 1.0, ""));
  add("sweep_wall_s", "s", median_of("sweep_wall_s", 1.0, ""));
  add("ingest_obs_per_s", "1/s", median_of("ingest_obs_per_s", 1.0, per_generation));
  add("analysis_pass_ms_p50", "ms", median_of("analysis_pass_s", 1e3, per_generation));
  add("analysis_pass_ms_p99", "ms", pooled_p99("analysis_pass_s"));
  add("view_read_us_p50", "us", median_of("view_read_ns", 1e-3, ""));
  out.Add("view_read_us_p99", view_reads.Quantile(0.99) * 1e-3, "us",
          std::to_string(view_reads.count()) + " samples pooled");
  add("report_ms_p50", "ms", median_of("report_s", 1e3, per_generation));
  add("report_ms_p99", "ms", pooled_p99("report_s"));
  add("replicate_ms_p50", "ms", median_of("replicate_s", 1e3, per_generation));
  add("replicate_ms_p99", "ms", pooled_p99("replicate_s"));
}

void PerLayer(const std::vector<Cycle>& untraced, const std::vector<Cycle>& traced,
              const Tally& t, const std::vector<SpanRecord>& spans, double cache_hits,
              double cache_misses, double full_resyncs, MetricList& out) {
  const double n = static_cast<double>(traced.size());
  auto per_cycle = [&](const std::string& key) { return t.Total(key) / n; };

  const double sim_wall = t.Total("sim.advance_s") + t.Total("explorer.pass_s");
  out.Add("sim.advance_s", per_cycle("sim.advance_s"), "s");
  out.Add("sim.events", per_cycle("sim.events"), "count");
  out.Add("sim.events_per_s", Ratio(t.Total("sim.events"), sim_wall), "1/s");
  out.Add("sim.queue_pending_max", t.Maximum("sim.queue_pending_max"), "count");

  out.Add("net.frames", per_cycle("net.frames"), "count");
  out.Add("net.bytes", per_cycle("net.bytes"), "bytes");
  out.Add("net.frames_dropped", per_cycle("net.frames_dropped"), "count");
  out.Add("net.ns_per_frame", Ratio(sim_wall * 1e9, t.Total("net.frames")), "ns");

  out.Add("explorer.pass_s", per_cycle("explorer.pass_s"), "s");
  double packets = 0.0;
  double records = 0.0;
  double new_info = 0.0;
  for (const ModuleKey& module : ModuleKeys()) {
    const std::string stem = std::string("explorer.") + module.key;
    out.Add(stem + ".packets", per_cycle(stem + ".packets"), "count");
    out.Add(stem + ".records", per_cycle(stem + ".records"), "count");
    out.Add(stem + ".new_info", per_cycle(stem + ".new_info"), "count");
    packets += t.Total(stem + ".packets");
    records += t.Total(stem + ".records");
    new_info += t.Total(stem + ".new_info");
  }
  out.Add("explorer.useful_store_ratio", Ratio(new_info, records), "ratio");
  out.Add("explorer.reply_ratio", Ratio(t.Total("explorer.replies"), packets), "ratio");

  out.Add("runtime.window_barriers", per_cycle("runtime.window_barriers"), "count");
  out.Add("runtime.cross_shard_events", per_cycle("runtime.cross_shard_events"), "count");
  out.Add("runtime.worker_idle_s", per_cycle("runtime.worker_idle_s"), "s");
  out.Add("runtime.shard_imbalance", Median(t.Samples("runtime.shard_imbalance")), "ratio");

  out.Add("manager.ticks", per_cycle("manager.ticks"), "count");
  out.Add("manager.modules_launched", per_cycle("manager.modules_launched"), "count");
  out.AddPercentiles("manager.correlate_ms", t.Samples("correlate_s"), "ms", 1e3);

  std::map<std::string, std::vector<double>> op_seconds;
  for (const SpanRecord& span : spans) {
    if (LayerOf(span.name) == "journal") {
      op_seconds[span.name].push_back(span.seconds());
    }
  }
  double loop_s = 0.0;
  for (const Cycle& cycle : traced) {
    loop_s += cycle.loop_s;
  }
  out.Add("journal.requests", per_cycle("journal.requests"), "count");
  out.Add("journal.request_bytes", per_cycle("journal.request_bytes"), "bytes");
  out.Add("journal.response_bytes", per_cycle("journal.response_bytes"), "bytes");
  out.Add("journal.server_share", Ratio(t.Total("journal.loop_server_s"), loop_s), "ratio");
  for (const char* op : {"batch", "delta", "point", "full"}) {
    out.AddPercentiles(std::string("journal.") + op + "_us",
                       op_seconds[std::string("journal.") + op], "us", 1e6);
  }
  out.Add("journal.batch_items_mean",
          Ratio(t.Total("journal.batch_items"), t.Total("journal.batch_requests")), "count");
  out.Add("journal.cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio");
  out.Add("journal.full_resyncs", full_resyncs / n, "count");
  out.AddPercentiles("journal.fetch_ms", t.Samples("fetch_s"), "ms", 1e3);

  out.AddPercentiles("analysis.render_ms", t.Samples("render_s"), "ms", 1e3);

  out.AddPercentiles("serve.refresh_ms", t.Samples("refresh_s"), "ms", 1e3);
  out.Add("serve.pushes", per_cycle("serve.pushes"), "count");
  out.Add("serve.dropped", per_cycle("serve.dropped"), "count");
  out.Add("serve.reads", per_cycle("serve.reads"), "count");

  const double pulls = t.Total("replicate.pulls");
  out.Add("replicate.requests_per_pull", Ratio(t.Total("replicate.requests"), pulls), "count");
  out.Add("replicate.bytes_per_pull", Ratio(t.Total("replicate.bytes"), pulls), "bytes");
  out.Add("replicate.records_per_pull", Ratio(t.Total("replicate.records"), pulls), "count");
  out.Add("replicate.useful_ratio",
          Ratio(t.Total("replicate.new_or_changed"), t.Total("replicate.records")), "ratio");

  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  double traced_work = 0.0;
  for (const Cycle& cycle : untraced) {
    plain_walls.push_back(cycle.work_s);
  }
  for (const Cycle& cycle : traced) {
    traced_walls.push_back(cycle.work_s);
    traced_work += cycle.work_s;
  }
  const std::map<std::string, double> self = SelfSecondsByLayer(spans);
  double self_total = 0.0;
  for (const auto& [layer, seconds] : self) {
    self_total += seconds;
  }
  out.Add("trace.overhead_pct", (Ratio(Median(traced_walls), Median(plain_walls)) - 1.0) * 100.0,
          "%");
  out.Add("trace.coverage", Ratio(self_total, traced_work), "ratio");
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    out.Add(std::string("trace.self_share.") + layer,
            Ratio(it == self.end() ? 0.0 : it->second, self_total), "ratio");
  }
}

// Chrome trace ("X" events) of every traced span.
void WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, \"trace\": %llu}}",
                  i == 0 ? "" : ",\n", s.name, s.thread, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace));
    out << line;
  }
  out << "\n]}\n";
}

// The traced rollup: self time per layer, largest first.
void PrintRollup(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, std::pair<double, size_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[spans[i].name];
    entry.first += self[i];
    ++entry.second;
  }
  std::vector<std::pair<std::string, std::pair<double, size_t>>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.first > b.second.first; });
  std::printf("traced rollup (self time, all traced cycles):\n");
  for (const auto& [name, entry] : rows) {
    std::printf("  %-22s %10.4f s  %8zu spans\n", name.c_str(), entry.first, entry.second);
  }
}

int Run(const Options& options) {
  std::filesystem::create_directories(options.out_dir);
  const size_t min_cycles = options.trace ? 4 : 3;
  Checks checks;
  std::vector<Cycle> untraced;
  std::vector<Cycle> traced;
  std::vector<SpanRecord> spans;
  std::string first_digest;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t full_resyncs = 0;
  std::vector<double> view_read_p50_ns;
  NanosHistogram view_reads;
  const auto start = SteadyClock::now();
  // Another cycle starts only if, taking as long as the longest so far, it
  // still ends within --seconds; the first min_cycles run regardless.
  double longest_s = 0.0;
  for (size_t i = 0; i < min_cycles || SecondsSince(start) + longest_s <= options.seconds; ++i) {
    const auto cycle_start = SteadyClock::now();
    const bool traced_cycle = options.trace && i % 2 == 1;
    CycleOptions cycle_options;
    cycle_options.seed = options.seed;
    cycle_options.dir = options.out_dir + "/cycle-" + std::to_string(i);
    std::filesystem::create_directories(cycle_options.dir);
    const uint64_t hits0 = RegistryCounter(fremont::telemetry::names::kJournalClientCacheHits);
    const uint64_t misses0 = RegistryCounter(fremont::telemetry::names::kJournalClientCacheMisses);
    const uint64_t resyncs0 = RegistryCounter(fremont::telemetry::names::kJournalClientFullResyncs);
    SpanLog::Global().set_enabled(traced_cycle);
    ResetPeakRss();
    Cycle cycle;
    if (options.workload == "campus") {
      std::string digest;
      cycle = RunCampusCycle(cycle_options, checks, &digest);
      if (first_digest.empty()) {
        first_digest = digest;
        std::printf("campus journal digest (EncodeAll, FNV-1a 64): %s\n", digest.c_str());
      }
      checks.Expect(digest == first_digest, "campus: Journal bytes differ between cycles");
    } else if (options.workload == "sharded_sweep") {
      cycle = RunShardedSweepCycle(cycle_options, checks);
    } else {
      cycle = RunJournalServeCycle(cycle_options, checks);
    }
    SpanLog::Global().set_enabled(false);
    cycle.peak_rss_mb = PeakRssMb();
    std::filesystem::remove_all(cycle_options.dir);
    std::printf("cycle %zu%s: set-up %.3f s, work %.3f s, primary loop %.3f s, peak RSS %.1f MB\n",
                i, traced_cycle ? " (traced)" : "", cycle.setup_s, cycle.work_s, cycle.loop_s,
                cycle.peak_rss_mb);
    if (traced_cycle) {
      const std::vector<SpanRecord> collected = SpanLog::Global().Collect();
      SpanLog::Global().Clear();
      spans.insert(spans.end(), collected.begin(), collected.end());
      cache_hits += RegistryCounter(fremont::telemetry::names::kJournalClientCacheHits) - hits0;
      cache_misses += RegistryCounter(fremont::telemetry::names::kJournalClientCacheMisses) - misses0;
      full_resyncs += RegistryCounter(fremont::telemetry::names::kJournalClientFullResyncs) - resyncs0;
      traced.push_back(std::move(cycle));
    } else {
      view_read_p50_ns.push_back(cycle.view_reads.Quantile(0.50));
      view_reads.Merge(cycle.view_reads);
      cycle.view_reads = NanosHistogram();
      untraced.push_back(std::move(cycle));
    }
    longest_s = std::max(longest_s, SecondsSince(cycle_start));
  }

  double attempted = 0.0;
  double failed = 0.0;
  Tally traced_tally;
  for (const std::vector<Cycle>* group : {&untraced, &traced}) {
    for (const Cycle& cycle : *group) {
      attempted += cycle.tally.Total("ops.attempted");
      failed += cycle.tally.Total("ops.failed");
    }
  }
  for (const Cycle& cycle : traced) {
    traced_tally.Merge(cycle.tally);
  }

  MetricList metrics;
  if (options.trace) {
    PerLayer(untraced, traced, traced_tally, spans, static_cast<double>(cache_hits),
             static_cast<double>(cache_misses), static_cast<double>(full_resyncs), metrics);
    PrintRollup(spans);
    if (!options.spans_path.empty()) {
      WriteSpans(options.spans_path, spans);
    }
  } else {
    EndToEnd(untraced, view_read_p50_ns, view_reads, metrics);
  }

  std::printf("workload %s seed %llu: %zu cycles in %.1f s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), untraced.size() + traced.size(),
              SecondsSince(start));
  for (const Metric& metric : metrics.metrics()) {
    if (!metric.basis.empty()) {
      std::printf("  %-36s %14.6g %-6s (%s)\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str(), metric.basis.c_str());
    } else {
      std::printf("  %-36s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
  }
  for (const std::string& failure : checks.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += checks.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(static_cast<uint64_t>(std::max(1.0, attempted)));
  json += ", \"failed\": " + std::to_string(static_cast<uint64_t>(failed));
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.metrics().size(); ++i) {
    const Metric& metric = metrics.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metric.value);
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks.failures.empty() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--out") {
      options->out_dir = value;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !options->out_dir.empty() &&
         (options->workload == "campus" || options->workload == "sharded_sweep" ||
          options->workload == "journal_serve");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: fremont_perfbench --workload campus|sharded_sweep|journal_serve "
                 "--seed N --seconds S --trace 0|1 --out DIR [--spans FILE]\n");
    return 2;
  }
  return perfbench::Run(options);
}
