#include "perfbench/src/serving.h"

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <unordered_set>

#include <sched.h>

#include "perfbench/src/span_log.h"
#include "src/journal/batch_writer.h"
#include "src/journal/client.h"
#include "src/journal/replicate.h"
#include "src/manager/correlate.h"
#include "src/serve/serve.h"
#include "src/serve/views.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using fremont::InterfaceObservation;
using fremont::Ipv4Address;
using fremont::JournalBatchWriter;
using fremont::JournalClient;
using fremont::JournalServer;
namespace serve = fremont::serve;

constexpr int kObservationsPerGeneration = 64;
constexpr int kNewHostsPerGeneration = 1;
constexpr int kRenamesPerGeneration = 7;
constexpr int kSubscribers = 100;
constexpr fremont::Duration kGenerationStep = fremont::Duration::Seconds(60);

// The population the generator writes about, seeded from the Journal.
class ObservationGenerator {
 public:
  ObservationGenerator(const std::vector<fremont::InterfaceRecord>& records, uint64_t seed)
      : rng_(seed) {
    for (const auto& rec : records) {
      Host host;
      host.ip = rec.ip;
      host.mac = rec.mac;
      host.mask = rec.mask;
      host.names[0] = rec.dns_name;
      host.names[1] = "alt-" + (rec.dns_name.empty() ? rec.ip.ToString() : rec.dns_name);
      hosts_.push_back(std::move(host));
      used_.insert(rec.ip.value());
    }
  }

  // One generation's batch: new hosts, then renames, then verify-only
  // re-stores of random known hosts.
  std::vector<InterfaceObservation> Next() {
    std::vector<InterfaceObservation> out;
    out.reserve(kObservationsPerGeneration);
    for (int i = 0; i < kNewHostsPerGeneration; ++i) {
      if (auto host = NewHost(); host.has_value()) {
        hosts_.push_back(*host);
        out.push_back(Observe(hosts_.back()));
      }
    }
    for (int i = 0; i < kRenamesPerGeneration && !hosts_.empty(); ++i) {
      Host& host = Pick();
      host.current ^= 1;
      out.push_back(Observe(host));
    }
    while (out.size() < static_cast<size_t>(kObservationsPerGeneration) && !hosts_.empty()) {
      out.push_back(Observe(Pick()));
    }
    return out;
  }

 private:
  struct Host {
    Ipv4Address ip;
    std::optional<fremont::MacAddress> mac;
    std::optional<fremont::SubnetMask> mask;
    std::string names[2];
    int current = 0;
  };

  Host& Pick() {
    return hosts_[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(hosts_.size()) - 1))];
  }

  static InterfaceObservation Observe(const Host& host) {
    InterfaceObservation obs;
    obs.ip = host.ip;
    obs.mac = host.mac;
    obs.mask = host.mask;
    obs.dns_name = host.names[host.current];
    return obs;
  }

  // A host joining a /24 that already has one of the known hosts.
  std::optional<Host> NewHost() {
    if (hosts_.empty()) {
      return std::nullopt;
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      const Host& neighbour = Pick();
      const uint32_t base = neighbour.ip.value() & 0xffffff00u;
      const uint32_t ip = base + static_cast<uint32_t>(rng_.Uniform(1, 254));
      if (!used_.insert(ip).second) {
        continue;
      }
      Host host;
      host.ip = Ipv4Address(ip);
      host.mac = fremont::MacAddress::FromIndex(0x5e0000u + next_new_++);
      host.mask = neighbour.mask;
      host.names[0] = "new" + std::to_string(next_new_) + ".perfbench";
      host.names[1] = "alt-" + host.names[0];
      return host;
    }
    return std::nullopt;
  }

  fremont::Rng rng_;
  std::vector<Host> hosts_;
  std::unordered_set<uint32_t> used_;
  uint64_t next_new_ = 0;
};

// Keeps the generation loop and the reader thread on different CPUs for
// the serving phase. Left to the scheduler, the two sometimes share one CPU
// and the loop loses whole scheduler ticks (~4 ms) to the spinning reader,
// which swamps every p99. Restores the loop thread's CPU set on destruction.
class CpuSplit {
 public:
  CpuSplit() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 || CPU_COUNT(&saved_) < 2) {
      return;
    }
    // The two highest CPUs: the lowest ones take more of the interrupts.
    int picked = 0;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && picked < 2; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        (picked++ == 0 ? loop_cpu_ : reader_cpu_) = cpu;
      }
    }
    active_ = Pin(loop_cpu_);
  }
  ~CpuSplit() {
    if (active_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  // Called from the reader thread.
  void PinReader() const {
    if (active_) {
      Pin(reader_cpu_);
    }
  }

 private:
  static bool Pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }

  cpu_set_t saved_{};
  int loop_cpu_ = 0;
  int reader_cpu_ = 0;
  bool active_ = false;
};

// Reads views back to back until stopped; joins on destruction.
class ViewReader {
 public:
  ViewReader(serve::ServeService* service, NanosHistogram* latencies, const CpuSplit* cpus)
      : service_(service), latencies_(latencies), thread_([this, cpus] {
          cpus->PinReader();
          Loop();
        }) {}
  ~ViewReader() { Stop(); }
  ViewReader(const ViewReader&) = delete;
  ViewReader& operator=(const ViewReader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  uint64_t reads() const { return reads_; }
  uint64_t null_reads() const { return null_reads_; }

 private:
  void Loop() {
    uint64_t touched = 0;
    for (uint64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      const auto kind = static_cast<serve::ViewKind>(i % serve::kViewCount);
      const auto start = SteadyClock::now();
      const std::shared_ptr<const serve::ViewSnapshot> snap = service_->ReadView(kind);
      if (snap == nullptr) {
        ++null_reads_;
      } else {
        const std::string& text = snap->view(kind);
        touched += text.size() + (text.empty() ? 0 : static_cast<uint8_t>(text.back()));
      }
      latencies_->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             SteadyClock::now() - start)
                             .count());
      ++reads_;
    }
    sink_ = touched;
  }

  serve::ServeService* service_;
  NanosHistogram* latencies_;
  std::atomic<bool> stop_{false};
  uint64_t reads_ = 0;
  uint64_t null_reads_ = 0;
  uint64_t sink_ = 0;  // Keeps the view access from being optimized away.
  std::thread thread_;  // Last: starts once the members it uses exist.
};

std::set<uint32_t> InterfaceKeys(JournalClient& client) {
  std::set<uint32_t> keys;
  for (const auto& rec : client.GetInterfaces()) {
    keys.insert(rec.ip.value());
  }
  return keys;
}

}  // namespace

ServingTimes RunServingPhase(JournalServer& primary, PhaseClock& clock, JournalMeter& meter,
                             uint64_t seed, int generations, Tally& tally,
                             NanosHistogram& view_reads, Checks& checks) {
  ServingTimes times;
  const auto startup = SteadyClock::now();
  auto now_fn = [&clock] { return clock.Now(); };
  clock.Set(clock.Now());

  JournalClient writer_client(meter.Wrap(&primary));
  JournalClient analysis_client(meter.Wrap(&primary));
  fremont::CorrelationState correlation(24);
  serve::ServeOptions serve_options;
  serve_options.run_correlation = false;  // Timed apart, just above.
  serve::ServeService service(&primary, now_fn, serve_options);
  JournalClient subscriber_client(meter.Wrap(&primary));
  std::vector<std::unique_ptr<serve::ServeSubscriber>> subscribers;
  for (int i = 0; i < kSubscribers; ++i) {
    subscribers.push_back(std::make_unique<serve::ServeSubscriber>(&service, &subscriber_client));
    checks.Expect(subscribers.back()->Subscribe(serve::kAllViewsMask), "serving: subscribe");
  }

  JournalServer replica(now_fn);
  JournalClient replica_client(meter.Wrap(&replica));
  JournalMeter pull_meter;
  JournalClient remote_client(pull_meter.Wrap(&primary));
  fremont::ReplicationPeer peer(&remote_client);

  correlation.Update(analysis_client, clock.Now());
  service.Refresh();
  peer.Pull(replica_client);
  ObservationGenerator generator(analysis_client.GetInterfaces(), seed);

  int64_t items = 0;
  int64_t item_failures = 0;
  int64_t pushes = 0;
  int64_t dropped = 0;
  SpanLog& spans = SpanLog::Global();
  const CpuSplit cpus;
  ViewReader reader(&service, &view_reads, &cpus);
  times.startup_s = SecondsSince(startup);
  const auto loop_start = SteadyClock::now();
  for (int g = 0; g < generations; ++g) {
    spans.NewTrace();
    const auto generation_start = SteadyClock::now();
    const ScopedSpan generation_span("bench.generation");
    clock.Set(clock.Now() + kGenerationStep);
    const std::vector<InterfaceObservation> batch = generator.Next();

    const auto write_start = SteadyClock::now();
    {
      const ScopedSpan span("journal.flush");
      JournalBatchWriter writer(&writer_client);
      for (const auto& obs : batch) {
        writer.StoreInterface(obs, fremont::DiscoverySource::kManual);
      }
      writer.Flush();
      items += writer.totals().records_written;
      item_failures += writer.totals().failed;
    }
    tally.Add("ingest.obs", static_cast<double>(batch.size()));
    tally.Add("ingest.wall_s", SecondsSince(write_start));

    const auto pass_start = SteadyClock::now();
    {
      const ScopedSpan span("manager.correlate");
      correlation.Update(analysis_client, clock.Now());
    }
    tally.Sample("correlate_s", SecondsSince(pass_start));
    const auto refresh_start = SteadyClock::now();
    serve::ServeService::RefreshResult refreshed;
    {
      const ScopedSpan span("serve.refresh");
      refreshed = service.Refresh();
    }
    tally.Sample("refresh_s", SecondsSince(refresh_start));
    tally.Sample("analysis_pass_s", SecondsSince(pass_start));
    pushes += refreshed.pushes;
    dropped += refreshed.dropped;

    const auto report_start = SteadyClock::now();
    std::string report;
    {
      const ScopedSpan span("analysis.report");
      JournalClient fresh(meter.Wrap(&primary));
      std::vector<fremont::InterfaceRecord> interfaces;
      std::vector<fremont::GatewayRecord> gateways;
      const auto fetch_start = SteadyClock::now();
      {
        const ScopedSpan fetch_span("journal.fetch");
        interfaces = fresh.GetInterfaces();
        gateways = fresh.GetGateways();
      }
      tally.Sample("fetch_s", SecondsSince(fetch_start));
      const auto render_start = SteadyClock::now();
      {
        const ScopedSpan render_span("analysis.render");
        report = serve::RenderProblems(interfaces, gateways, clock.Now()).text;
      }
      tally.Sample("render_s", SecondsSince(render_start));
    }
    tally.Sample("report_s", SecondsSince(report_start));

    const uint64_t pull_requests = pull_meter.requests();
    const uint64_t pull_bytes = pull_meter.request_bytes() + pull_meter.response_bytes();
    const auto pull_start = SteadyClock::now();
    fremont::ReplicationStats pulled;
    {
      const ScopedSpan span("replicate.pull");
      pulled = peer.Pull(replica_client);
    }
    tally.Sample("replicate_s", SecondsSince(pull_start));
    const int records = pulled.interfaces_pulled + pulled.gateways_pulled + pulled.subnets_pulled;
    tally.Add("replicate.pulls", 1);
    tally.Add("replicate.requests", static_cast<double>(pull_meter.requests() - pull_requests));
    tally.Add("replicate.bytes", static_cast<double>(pull_meter.request_bytes() +
                                                    pull_meter.response_bytes() - pull_bytes));
    tally.Add("replicate.records", records);
    tally.Add("replicate.new_or_changed", pulled.new_or_changed);
    tally.Sample("generation_s", SecondsSince(generation_start));

    const auto snap = service.snapshot();
    checks.Expect(snap != nullptr && snap->view(serve::ViewKind::kProblems) == report,
                  "serving: report differs from the problems view at the same generation");
  }
  times.loop_s = SecondsSince(loop_start);
  reader.Stop();

  // The warm views must equal a cold build over a full fetch, and the
  // replica must hold every interface the primary does.
  const auto snap = service.snapshot();
  JournalClient cold(meter.Wrap(&primary));
  const auto interfaces = cold.GetInterfaces();
  const auto gateways = cold.GetGateways();
  const auto subnets = cold.GetSubnets();
  checks.Expect(snap != nullptr && snap->generation == cold.last_seen_generation() &&
                    snap->Serialize() == serve::BuildViewSnapshot(interfaces, gateways, subnets,
                                                                  snap->built_at,
                                                                  snap->generation)
                                             .Serialize(),
                "serving: warm view snapshot differs from a cold build");
  checks.Expect(InterfaceKeys(replica_client) == InterfaceKeys(cold),
                "serving: replica interface keys differ from the primary's");

  const auto reads = static_cast<double>(reader.reads());
  const auto nulls = static_cast<double>(reader.null_reads());
  tally.Add("serve.sim_s", generations * kGenerationStep.ToSecondsF());
  tally.Add("serve.generations", generations);
  tally.Add("serve.pushes", static_cast<double>(pushes));
  tally.Add("serve.dropped", static_cast<double>(dropped));
  tally.Add("serve.reads", reads);
  tally.Add("ops.attempted", static_cast<double>(items + pushes + dropped) + reads);
  tally.Add("ops.failed", static_cast<double>(item_failures + dropped) + nulls);
  TallyMeter(pull_meter, tally);
  return times;
}

}  // namespace perfbench
