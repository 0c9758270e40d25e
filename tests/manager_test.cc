// Tests for the Discovery Manager: schedule file round-trip, adaptive
// intervals, due-module selection, concurrent vs serial ticks, and the
// correlation pass.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/explorer/explorer.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"
#include "src/manager/discovery_manager.h"
#include "src/manager/schedule.h"
#include "src/sim/host.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

TEST(ScheduleDurationTest, ParseAndFormat) {
  EXPECT_EQ(ParseScheduleDuration("90s"), Duration::Seconds(90));
  EXPECT_EQ(ParseScheduleDuration("30m"), Duration::Minutes(30));
  EXPECT_EQ(ParseScheduleDuration("2h"), Duration::Hours(2));
  EXPECT_EQ(ParseScheduleDuration("1d"), Duration::Days(1));
  EXPECT_EQ(ParseScheduleDuration("45"), Duration::Seconds(45));
  EXPECT_FALSE(ParseScheduleDuration("").has_value());
  EXPECT_FALSE(ParseScheduleDuration("h").has_value());
  EXPECT_FALSE(ParseScheduleDuration("2x").has_value());
  EXPECT_FALSE(ParseScheduleDuration("1.5h").has_value());

  EXPECT_EQ(FormatScheduleDuration(Duration::Days(7)), "7d");
  EXPECT_EQ(FormatScheduleDuration(Duration::Hours(2)), "2h");
  EXPECT_EQ(FormatScheduleDuration(Duration::Minutes(30)), "30m");
  EXPECT_EQ(FormatScheduleDuration(Duration::Seconds(90)), "90s");
  // Round trip.
  EXPECT_EQ(ParseScheduleDuration(FormatScheduleDuration(Duration::Hours(36))),
            Duration::Hours(36));
}

TEST(ScheduleFileTest, FormatParseRoundTrip) {
  std::vector<ModuleSchedule> modules(2);
  modules[0].name = "arpwatch";
  modules[0].min_interval = Duration::Hours(2);
  modules[0].max_interval = Duration::Days(7);
  modules[0].current_interval = Duration::Hours(4);
  modules[0].last_run = SimTime::FromMicros(123456789);
  modules[0].ever_run = true;
  modules[0].last_discovered = 42;
  modules[1].name = "traceroute";
  modules[1].min_interval = Duration::Days(2);
  modules[1].max_interval = Duration::Days(14);

  const std::string text = FormatScheduleFile(modules);
  auto parsed = ParseScheduleFile(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].name, "arpwatch");
  EXPECT_EQ((*parsed)[0].current_interval, Duration::Hours(4));
  EXPECT_EQ((*parsed)[0].last_run, SimTime::FromMicros(123456789));
  EXPECT_TRUE((*parsed)[0].ever_run);
  EXPECT_EQ((*parsed)[0].last_discovered, 42);
  EXPECT_EQ((*parsed)[1].min_interval, Duration::Days(2));
  EXPECT_FALSE((*parsed)[1].ever_run);
}

TEST(ScheduleFileTest, ParseSkipsCommentsRejectsGarbage) {
  auto ok = ParseScheduleFile("# comment\n\nmodule m min 1h max 2h\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->size(), 1u);
  EXPECT_FALSE(ParseScheduleFile("bogus line\n").has_value());
  EXPECT_FALSE(ParseScheduleFile("module m min notaduration\n").has_value());
  // A key with no value, a number that is not a whole token, an ever_run
  // other than 0 or 1, and a duration past int64_t microseconds.
  for (const char* line : {"module m min 1h max\n", "module m last_run soon\n",
                           "module m last_run 12x\n", "module m last_discovered many\n",
                           "module m last_discovered 99999999999\n", "module m ever_run yes\n",
                           "module m ever_run 2\n", "module m interval 106751992d\n",
                           "module m interval 99999999999999999999s\n"}) {
    EXPECT_FALSE(ParseScheduleFile(line).has_value()) << line;
  }
  EXPECT_TRUE(ParseScheduleFile("module m interval 106751991d ever_run 0\n").has_value());
}

TEST(ScheduleFileTest, SaveLoad) {
  std::vector<ModuleSchedule> modules(1);
  modules[0].name = "dns";
  const std::string path = ::testing::TempDir() + "/schedule_test.txt";
  ASSERT_TRUE(SaveScheduleFile(path, modules));
  auto loaded = LoadScheduleFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ((*loaded)[0].name, "dns");
  std::remove(path.c_str());
  EXPECT_FALSE(LoadScheduleFile(path).has_value());
}

// The vantage a fake module runs from: a host with no interfaces on the
// test's event queue.
struct FakeVantage {
  explicit FakeVantage(EventQueue* events) : host("vantage", {}, events, &rng) {}
  Rng rng{1};
  Host host;
};

// A scriptable ExplorerModule for manager tests: runs `runtime` of simulated
// time (scheduling its own completion event, like a real module), then
// reports the configured yield.
class FakeModule : public ExplorerModule {
 public:
  struct Config {
    Duration runtime;  // Sim time between Start and completion.
    int yield = 0;     // Becomes discovered/records_written/new_info.
    uint64_t packets_sent = 0;
    uint64_t replies_received = 0;
    std::function<void()> on_complete;  // Runs just before Complete().
  };

  FakeModule(const std::string& name, Host* vantage, Config config)
      : ExplorerModule(name, name, vantage, nullptr), config_(std::move(config)) {}

 protected:
  void StartImpl() override {
    ScheduleGuarded(config_.runtime, [this]() { Finish(); });
  }

 private:
  void Finish() {
    ExplorerReport& report = mutable_report();
    report.discovered = config_.yield;
    report.records_written = config_.yield;
    report.new_info = config_.yield;  // Yields model *new* information.
    report.packets_sent = config_.packets_sent;
    report.replies_received = config_.replies_received;
    if (config_.on_complete) {
      config_.on_complete();
    }
    Complete();
  }

  Config config_;
};

class DiscoveryManagerTest : public ::testing::Test {
 protected:
  DiscoveryManagerTest() : manager_(&events_, nullptr) {}

  // Registers a fake module whose per-run yields come from `yields` (repeating
  // the last value when exhausted).
  void AddFakeModule(const std::string& name, Duration min_interval, Duration max_interval,
                     std::vector<int> yields) {
    auto counter = std::make_shared<size_t>(0);
    auto yields_ptr = std::make_shared<std::vector<int>>(std::move(yields));
    ModuleRegistration reg;
    reg.name = name;
    reg.min_interval = min_interval;
    reg.max_interval = max_interval;
    reg.make = [this, name, counter, yields_ptr]() {
      const size_t index = std::min(*counter, yields_ptr->size() - 1);
      ++*counter;
      FakeModule::Config config;
      config.yield = (*yields_ptr)[index];
      config.on_complete = [this]() { ++total_runs_; };
      return std::make_unique<FakeModule>(name, &vantage_.host, config);
    };
    manager_.RegisterModule(std::move(reg));
  }

  EventQueue events_;
  FakeVantage vantage_{&events_};
  DiscoveryManager manager_;
  int total_runs_ = 0;
};

TEST_F(DiscoveryManagerTest, NeverRunModulesAreDueImmediately) {
  AddFakeModule("m", Duration::Hours(2), Duration::Days(7), {5});
  EXPECT_EQ(manager_.NextDue(), SimTime::Epoch());
  auto reports = manager_.Tick();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].module, "m");
  // Now scheduled in the future.
  EXPECT_GT(manager_.NextDue(), events_.Now());
}

TEST_F(DiscoveryManagerTest, BarrenRunsBackOffToMax) {
  AddFakeModule("m", Duration::Hours(2), Duration::Hours(16), {0});
  manager_.RunFor(Duration::Days(4));
  const auto& state = manager_.modules()[0];
  EXPECT_EQ(state.schedule.current_interval, Duration::Hours(16));
  // ~2+4+8+16+16... hours over 4 days: far fewer runs than at min interval.
  EXPECT_LE(state.runs, 9);
  EXPECT_GE(state.runs, 4);
}

TEST_F(DiscoveryManagerTest, FruitfulRunsTightenToMin) {
  // Yields keep growing: every run discovers more → interval halves to min.
  AddFakeModule("m", Duration::Hours(1), Duration::Hours(32),
                {1, 2, 4, 8, 16, 32, 64, 128, 256});
  manager_.RunFor(Duration::Days(2));
  EXPECT_EQ(manager_.modules()[0].schedule.current_interval, Duration::Hours(1));
}

TEST_F(DiscoveryManagerTest, SteadyYieldHoldsInterval) {
  // Same non-zero yield every run: the paper's "don't shorten" case — the
  // interval neither halves nor doubles.
  AddFakeModule("m", Duration::Hours(1), Duration::Hours(64), {10, 10, 10, 10, 10});
  manager_.Tick();                      // First run (interval stays at min).
  const Duration after_first = manager_.modules()[0].schedule.current_interval;
  manager_.RunFor(Duration::Days(1));
  EXPECT_EQ(manager_.modules()[0].schedule.current_interval, after_first);
}

TEST_F(DiscoveryManagerTest, MultipleModulesIndependentSchedules) {
  AddFakeModule("fast", Duration::Hours(1), Duration::Hours(2), {3, 4, 5, 6, 7, 8, 9, 10});
  AddFakeModule("slow", Duration::Hours(8), Duration::Days(4), {0});
  manager_.RunFor(Duration::Days(2));
  const auto& fast = manager_.modules()[0];
  const auto& slow = manager_.modules()[1];
  EXPECT_GT(fast.runs, slow.runs * 2);
}

TEST_F(DiscoveryManagerTest, ScheduleExportRestoreRoundTrip) {
  AddFakeModule("m", Duration::Hours(2), Duration::Days(7), {0});
  manager_.RunFor(Duration::Days(1));
  auto exported = manager_.ExportSchedule();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_TRUE(exported[0].ever_run);

  // A fresh manager restoring this schedule does not re-run immediately.
  DiscoveryManager fresh(&events_, nullptr);
  int runs = 0;
  ModuleRegistration reg;
  reg.name = "m";
  reg.min_interval = Duration::Hours(2);
  reg.max_interval = Duration::Days(7);
  reg.make = [&runs, this]() {
    FakeModule::Config config;
    config.on_complete = [&runs]() { ++runs; };
    return std::make_unique<FakeModule>("m", &vantage_.host, config);
  };
  fresh.RegisterModule(std::move(reg));
  fresh.RestoreSchedule(exported);
  fresh.Tick();
  EXPECT_EQ(runs, 0);  // Not due: history restored.
  EXPECT_EQ(fresh.NextDue(), exported[0].NextDue());
}

TEST(DiscoveryManagerJournalTest, TracksJournalGrowthPerRun) {
  EventQueue events;
  FakeVantage vantage(&events);
  JournalServer server([&events]() { return events.Now(); });
  JournalClient client(&server);
  DiscoveryManager manager(&events, &client);

  int run_index = 0;
  ModuleRegistration reg;
  reg.name = "writer";
  reg.min_interval = Duration::Hours(1);
  reg.max_interval = Duration::Hours(64);
  reg.make = [&]() {
    FakeModule::Config config;
    config.yield = 3;
    // First run writes three interfaces; later runs re-verify them.
    config.on_complete = [&]() {
      for (uint8_t i = 0; i < 3; ++i) {
        InterfaceObservation obs;
        obs.ip = Ipv4Address(10, 0, 0, static_cast<uint8_t>(1 + i));
        client.StoreInterface(obs, DiscoverySource::kSeqPing);
      }
      ++run_index;
    };
    return std::make_unique<FakeModule>("writer", &vantage.host, config);
  };
  manager.RegisterModule(std::move(reg));

  manager.Tick();
  EXPECT_EQ(manager.modules()[0].last_journal_growth, 3);  // Three new records.
  manager.RunFor(Duration::Hours(3));
  EXPECT_GE(run_index, 2);
  EXPECT_EQ(manager.modules()[0].last_journal_growth, 0);  // Only re-verification.
}

TEST_F(DiscoveryManagerTest, RunForPopulatesTelemetryCounters) {
  namespace names = telemetry::names;
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.Reset();
  telemetry::Tracer::Global().Clear();

  // Every ExplorerModule reports through the shared lifecycle driver, so the
  // module-side counters come for free from Complete().
  ModuleRegistration reg;
  reg.name = "faketelemetry";
  reg.min_interval = Duration::Hours(2);
  reg.max_interval = Duration::Days(7);
  reg.make = [this]() {
    FakeModule::Config config;
    config.yield = 1;
    config.packets_sent = 4;
    config.replies_received = 2;
    config.on_complete = [this]() { ++total_runs_; };
    return std::make_unique<FakeModule>("faketelemetry", &vantage_.host, config);
  };
  manager_.RegisterModule(std::move(reg));
  AddFakeModule("plain", Duration::Hours(8), Duration::Days(4), {0});

  manager_.RunFor(Duration::Days(2));
  ASSERT_GT(total_runs_, 0);

  // Manager-side counters cover every run; one adaptation decision per run.
  EXPECT_EQ(metrics.GetCounter(names::kManagerModuleRuns)->value(),
            static_cast<uint64_t>(total_runs_));
  EXPECT_GT(metrics.GetCounter(names::kManagerTicks)->value(), 0u);
  const uint64_t decisions = metrics.GetCounter(names::kManagerIntervalShortened)->value() +
                             metrics.GetCounter(names::kManagerIntervalLengthened)->value() +
                             metrics.GetCounter(names::kManagerIntervalHeld)->value();
  EXPECT_EQ(decisions, static_cast<uint64_t>(total_runs_));
  {
    const MutexLock lock(metrics.export_mutex());
    EXPECT_EQ(metrics.histograms().at("manager/fruitfulness").count(),
              static_cast<uint64_t>(total_runs_));
  }

  // Module-side counters: nonzero runs and per-run yield for the module that
  // reports through the hook.
  EXPECT_GT(metrics.GetCounter(names::kModuleRuns.WithKey("faketelemetry"))->value(), 0u);
  EXPECT_GT(metrics.GetCounter(names::kModulePacketsSent.WithKey("faketelemetry"))->value(), 0u);
  EXPECT_GT(metrics.GetCounter(names::kModuleNewInfo.WithKey("faketelemetry"))->value(), 0u);

  // Every adaptation leaves a schedule-decision trace event.
  bool saw_schedule_decision = false;
  for (const auto& event : telemetry::Tracer::Global().Events()) {
    if (event.kind == telemetry::TraceEventKind::kScheduleDecision) {
      saw_schedule_decision = true;
      break;
    }
  }
  EXPECT_TRUE(saw_schedule_decision);
}

TEST_F(DiscoveryManagerTest, NullFactoryDoesNotStallRunUntil) {
  ModuleRegistration reg;
  reg.name = "broken";
  reg.min_interval = Duration::Hours(2);
  reg.max_interval = Duration::Hours(8);
  reg.make = []() -> std::unique_ptr<ExplorerModule> { return nullptr; };
  manager_.RegisterModule(std::move(reg));

  // A factory that persistently fails must not leave the module due at the
  // same instant forever: RunUntil has to reach the deadline and return.
  const SimTime deadline = events_.Now() + Duration::Days(1);
  auto reports = manager_.RunUntil(deadline);
  EXPECT_TRUE(reports.empty());
  EXPECT_EQ(events_.Now(), deadline);
  EXPECT_TRUE(manager_.modules()[0].schedule.ever_run);  // Stamped per attempt.
  EXPECT_EQ(manager_.modules()[0].runs, 0);              // But never actually ran.
}

TEST_F(DiscoveryManagerTest, RegisterWhileTickInFlightKeepsStateReferencesStable) {
  ModuleRegistration reg;
  reg.name = "grower";
  reg.min_interval = Duration::Hours(2);
  reg.max_interval = Duration::Days(7);
  reg.make = [this]() {
    FakeModule::Config config;
    config.runtime = Duration::Seconds(10);
    config.yield = 1;
    config.on_complete = [this]() {
      // Mid-tick registration: grows modules_ while `grower`'s ModuleState
      // is still referenced by its in-flight completion callback. The state
      // container must keep existing elements' addresses stable.
      for (int i = 0; i < 64; ++i) {
        AddFakeModule("late" + std::to_string(i), Duration::Hours(4), Duration::Days(7), {0});
      }
    };
    return std::make_unique<FakeModule>("grower", &vantage_.host, config);
  };
  manager_.RegisterModule(std::move(reg));

  auto reports = manager_.Tick();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(manager_.modules().size(), 65u);
  // FinishModule stamped the *original* grower state, not a dangling slot.
  EXPECT_EQ(manager_.modules()[0].runs, 1);
  EXPECT_TRUE(manager_.modules()[0].schedule.ever_run);
}

TEST(DiscoveryManagerEmptyTest, RunUntilWithoutModulesIsNoOp) {
  EventQueue events;
  DiscoveryManager manager(&events, nullptr);
  EXPECT_FALSE(manager.NextDue().has_value());
  const SimTime before = events.Now();
  auto reports = manager.RunUntil(before + Duration::Days(1));
  EXPECT_TRUE(reports.empty());
  // Documented no-op: nothing will ever become due, so the simulated clock
  // must not be driven to the deadline.
  EXPECT_EQ(events.Now(), before);
}

TEST_F(DiscoveryManagerTest, RestoreScheduleResetsFutureLastRunViaScheduleFile) {
  AddFakeModule("m", Duration::Hours(2), Duration::Days(7), {1});

  // History written under a different clock epoch: last_run is *ahead* of
  // this manager's clock. Round-trip it through the startup/history file the
  // way a real restart would.
  std::vector<ModuleSchedule> history(1);
  history[0].name = "m";
  history[0].min_interval = Duration::Hours(2);
  history[0].max_interval = Duration::Days(7);
  history[0].current_interval = Duration::Hours(4);
  history[0].ever_run = true;
  history[0].last_discovered = 9;
  history[0].last_run = events_.Now() + Duration::Days(2);
  const std::string path = ::testing::TempDir() + "/future_schedule_test.txt";
  ASSERT_TRUE(SaveScheduleFile(path, history));
  auto loaded = LoadScheduleFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());

  manager_.RestoreSchedule(*loaded);
  // The future last_run is treated as never-run, not deferred two days.
  EXPECT_FALSE(manager_.modules()[0].schedule.ever_run);
  EXPECT_EQ(manager_.NextDue(), SimTime::Epoch());
  auto reports = manager_.Tick();
  EXPECT_EQ(reports.size(), 1u);
}

TEST(DiscoveryManagerConcurrencyTest, ConcurrentTickOverlapsModuleRuns) {
  namespace names = telemetry::names;
  auto& metrics = telemetry::MetricsRegistry::Global();
  metrics.Reset();

  auto build = [](Host* vantage, DiscoveryManager* manager) {
    for (const char* name : {"a", "b"}) {
      ModuleRegistration reg;
      reg.name = name;
      reg.min_interval = Duration::Hours(2);
      reg.max_interval = Duration::Days(7);
      reg.make = [vantage, name]() {
        FakeModule::Config config;
        config.runtime = Duration::Seconds(100);
        config.yield = 1;
        return std::make_unique<FakeModule>(name, vantage, config);
      };
      manager->RegisterModule(std::move(reg));
    }
  };

  // Serial: the two 100-second runs execute back to back.
  EventQueue serial_events;
  FakeVantage serial_vantage(&serial_events);
  DiscoveryManager serial(&serial_events, nullptr);
  serial.set_serial(true);
  build(&serial_vantage.host, &serial);
  auto serial_reports = serial.Tick();
  ASSERT_EQ(serial_reports.size(), 2u);
  EXPECT_EQ(serial_events.Now(), SimTime::Epoch() + Duration::Seconds(200));
  // No overlap: the second module starts after the first finishes.
  EXPECT_GE(serial_reports[1].started, serial_reports[0].finished);

  // Concurrent (default): both launch into one event-queue pass and their
  // waits overlap, so wall-clock is one runtime, not two.
  EventQueue concurrent_events;
  FakeVantage concurrent_vantage(&concurrent_events);
  DiscoveryManager concurrent(&concurrent_events, nullptr);
  EXPECT_FALSE(concurrent.serial());
  build(&concurrent_vantage.host, &concurrent);
  auto reports = concurrent.Tick();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(concurrent_events.Now(), SimTime::Epoch() + Duration::Seconds(100));
  EXPECT_EQ(reports[0].started, reports[1].started);
  EXPECT_LT(reports[0].started, reports[0].finished);

  EXPECT_EQ(metrics.GetCounter(names::kManagerConcurrentRuns)->value(), 1u);
  EXPECT_GE(metrics.GetGauge(names::kManagerModulesInFlight)->max_value(), 2);
  // The gauge tracks completions too: once the tick drains it reads 0, not
  // the peak concurrency.
  EXPECT_EQ(metrics.GetGauge(names::kManagerModulesInFlight)->value(), 0);
}

TEST(DiscoveryManagerConcurrencyTest, ConcurrentAndSerialTicksYieldSameJournal) {
  auto run_mode = [](bool serial_mode) {
    EventQueue events;
    FakeVantage vantage(&events);
    JournalServer server([&events]() { return events.Now(); });
    JournalClient client(&server);
    DiscoveryManager manager(&events, &client);
    manager.set_serial(serial_mode);
    for (int m = 0; m < 3; ++m) {
      ModuleRegistration reg;
      reg.name = "writer" + std::to_string(m);
      reg.min_interval = Duration::Hours(2);
      reg.max_interval = Duration::Days(7);
      reg.make = [&vantage, &client, m]() {
        FakeModule::Config config;
        config.runtime = Duration::Seconds(30 + m);
        config.yield = 4;
        config.on_complete = [&client, m]() {
          for (uint8_t i = 0; i < 4; ++i) {
            InterfaceObservation obs;
            obs.ip = Ipv4Address(10, 0, static_cast<uint8_t>(m), static_cast<uint8_t>(1 + i));
            client.StoreInterface(obs, DiscoverySource::kSeqPing);
          }
        };
        return std::make_unique<FakeModule>("writer", &vantage.host, config);
      };
      manager.RegisterModule(std::move(reg));
    }
    auto reports = manager.Tick();
    EXPECT_EQ(reports.size(), 3u);
    std::set<uint32_t> ips;
    for (const auto& rec : client.GetInterfaces()) {
      ips.insert(rec.ip.value());
    }
    EXPECT_EQ(ips.size(), 12u);
    return ips;
  };
  // Same records either way: interleaving changes order, never content.
  EXPECT_EQ(run_mode(true), run_mode(false));
}

TEST(CorrelateTest, InfersGatewayFromSharedMac) {
  JournalServer server([]() { return SimTime::Epoch() + Duration::Hours(1); });
  JournalClient client(&server);
  const MacAddress shared_mac(0, 0, 0x0c, 1, 2, 3);
  // The same MAC observed with different IPs on two subnets (two ARP module
  // runs from different vantage points).
  for (auto ip : {Ipv4Address(128, 138, 238, 1), Ipv4Address(128, 138, 240, 1)}) {
    InterfaceObservation obs;
    obs.ip = ip;
    obs.mac = shared_mac;
    client.StoreInterface(obs, DiscoverySource::kArpWatch);
  }
  CorrelationReport report = Correlate(client);
  EXPECT_EQ(report.gateways_inferred_from_mac, 1);
  auto gateways = client.GetGateways();
  ASSERT_EQ(gateways.size(), 1u);
  EXPECT_EQ(gateways[0].interface_ids.size(), 2u);
  EXPECT_EQ(gateways[0].connected_subnets.size(), 2u);
}

TEST(CorrelateTest, SameSubnetReaddressIsNotAGateway) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  const MacAddress mac(0x08, 0, 0x20, 1, 2, 3);
  for (auto ip : {Ipv4Address(128, 138, 238, 10), Ipv4Address(128, 138, 238, 77)}) {
    InterfaceObservation obs;
    obs.ip = ip;
    obs.mac = mac;
    client.StoreInterface(obs, DiscoverySource::kArpWatch);
  }
  CorrelationReport report = Correlate(client);
  EXPECT_EQ(report.gateways_inferred_from_mac, 0);
  EXPECT_EQ(report.same_subnet_multi_ip_macs, 1);
  EXPECT_TRUE(client.GetGateways().empty());
}

TEST(CorrelateTest, DirectivesListMissingData) {
  JournalServer server([]() { return SimTime::Epoch(); });
  JournalClient client(&server);
  InterfaceObservation no_mask;
  no_mask.ip = Ipv4Address(128, 138, 238, 10);
  client.StoreInterface(no_mask, DiscoverySource::kSeqPing);
  SubnetObservation orphan_subnet;
  orphan_subnet.subnet = *Subnet::Parse("128.138.250.0/24");
  client.StoreSubnet(orphan_subnet, DiscoverySource::kRipWatch);

  CorrelationReport report = Correlate(client);
  ASSERT_EQ(report.interfaces_without_mask.size(), 1u);
  EXPECT_EQ(report.interfaces_without_mask[0], Ipv4Address(128, 138, 238, 10));
  ASSERT_EQ(report.subnets_without_gateway.size(), 1u);
  EXPECT_EQ(report.subnets_without_gateway[0], *Subnet::Parse("128.138.250.0/24"));
}

void ExpectReportsEqual(const CorrelationReport& full, const CorrelationReport& incremental,
                        int round) {
  EXPECT_EQ(full.gateways_inferred_from_mac, incremental.gateways_inferred_from_mac)
      << "round " << round;
  EXPECT_EQ(full.same_subnet_multi_ip_macs, incremental.same_subnet_multi_ip_macs)
      << "round " << round;
  EXPECT_EQ(full.subnets_without_gateway, incremental.subnets_without_gateway)
      << "round " << round;
  EXPECT_EQ(full.interfaces_without_mask, incremental.interfaces_without_mask)
      << "round " << round;
}

// The equivalence contract: after any interleaving of stores and deletes,
// a persistent CorrelationState's Update() must return the same report a
// full-pass Correlate() would compute over the same Journal bytes. The full
// pass runs against a byte-identical clone each round — it re-stores every
// gateway group (re-verifying members, bumping timestamps) while the
// incremental pass only touches dirty groups, so running both against the
// same live journal (or two live journals) would diverge by design. The
// clone isolates the comparison to what the contract actually promises.
TEST(CorrelateTest, IncrementalStateMatchesFullPassEveryRound) {
  Rng rng(1993);
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient client(&server);
  JournalClient incr_client(&server);
  incr_client.EnableQueryCache(/*exclusive=*/false);
  CorrelationState state;

  auto random_ip = [&]() {
    return Ipv4Address(128, 138, static_cast<uint8_t>(rng.Uniform(1, 5)),
                       static_cast<uint8_t>(rng.Uniform(1, 30)));
  };
  for (int round = 0; round < 25; ++round) {
    for (int op = 0; op < 15; ++op) {
      now += Duration::Seconds(rng.Uniform(1, 300));
      const int64_t kind = rng.Uniform(0, 9);
      if (kind <= 6) {
        InterfaceObservation obs;
        obs.ip = random_ip();
        if (rng.Bernoulli(0.8)) {
          obs.mac = MacAddress::FromIndex(static_cast<uint64_t>(rng.Uniform(0, 25)));
        }
        if (rng.Bernoulli(0.3)) {
          obs.dns_name = "host" + std::to_string(rng.Uniform(0, 40)) + ".colorado.edu";
        }
        if (rng.Bernoulli(0.5)) {
          obs.mask = SubnetMask::FromPrefixLength(24);
        }
        client.StoreInterface(obs, DiscoverySource::kArpWatch);
      } else if (kind == 7) {
        SubnetObservation obs;
        obs.subnet = Subnet(random_ip(), SubnetMask::FromPrefixLength(24));
        client.StoreSubnet(obs, DiscoverySource::kRipWatch);
      } else {
        auto all = client.GetInterfaces();
        if (!all.empty()) {
          const RecordId victim =
              all[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(all.size()) - 1))].id;
          ASSERT_TRUE(client.DeleteInterface(victim));
        }
      }
    }
    now += Duration::Seconds(1);

    // Clone the live journal byte-for-byte, then run the from-scratch pass
    // on the clone and the incremental pass on the live server.
    ByteWriter snapshot;
    server.journal().EncodeAll(snapshot);
    JournalServer clone([&now]() { return now; });
    ByteReader reader(snapshot.buffer());
    ASSERT_TRUE(clone.journal().DecodeAll(reader));
    JournalClient clone_client(&clone);

    CorrelationReport full = Correlate(clone_client, 24, now);
    CorrelationReport incremental = state.Update(incr_client, now);
    ExpectReportsEqual(full, incremental, round);

    // Gateway *records* are not compared: StoreGateway resolves members by
    // IP, so a full pass that re-stores every group each round steals back
    // IP-colliding members and merges stale rows the incremental pass leaves
    // untouched until their group next goes dirty. The report is the
    // contract; both journals just have to stay internally consistent.
    ASSERT_TRUE(server.journal().CheckIndexes()) << "round " << round;
    ASSERT_TRUE(clone.journal().CheckIndexes()) << "round " << round;
  }
  EXPECT_GT(state.incremental_passes(), 0);
  EXPECT_EQ(state.full_rebuilds(), 1);
}

// After a horizon overrun the state rebuilds itself and keeps matching.
TEST(CorrelateTest, IncrementalStateRecoversPastChangelogHorizon) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  server.journal().set_changelog_capacity(4);
  JournalClient client(&server);
  CorrelationState state;
  state.Update(client, now);  // Initial (empty) rebuild.

  // Far more distinct mutations than the changelog holds.
  const MacAddress shared_mac(0, 0, 0x0c, 9, 9, 9);
  for (uint8_t i = 0; i < 10; ++i) {
    now += Duration::Minutes(1);
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, static_cast<uint8_t>(1 + (i % 2)), 1);
    obs.mac = shared_mac;
    obs.mask = SubnetMask::FromPrefixLength(24);
    client.StoreInterface(obs, DiscoverySource::kArpWatch);
    InterfaceObservation filler;
    filler.ip = Ipv4Address(10, 1, i, 1);
    client.StoreInterface(filler, DiscoverySource::kSeqPing);
  }
  CorrelationReport incremental = state.Update(client, now);
  EXPECT_GE(state.full_rebuilds(), 2);  // The horizon forced a rebuild.
  CorrelationReport full = Correlate(client, 24, now);
  ExpectReportsEqual(full, incremental, /*round=*/-1);
  EXPECT_EQ(incremental.gateways_inferred_from_mac, 1);
}

// A store landing between the interface and subnet delta reads of one pass
// must reach a later pass. Each table keeps its own cursor; a single cursor
// advanced to the later read's generation would skip the store for good.
TEST(CorrelateTest, StoreBetweenDeltaReadsReachesNextPass) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient writer(&server);
  const MacAddress shared_mac(0, 0, 0x0c, 7, 7, 7);
  auto arm = [&](uint8_t subnet) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, subnet, 1);
    obs.mac = shared_mac;
    obs.mask = SubnetMask::FromPrefixLength(24);
    writer.StoreInterface(obs, DiscoverySource::kArpWatch);
  };
  arm(1);

  // Lands the gateway's second arm just before the server answers the next
  // subnet delta read, i.e. after the same pass's interface delta read.
  bool armed = false;
  JournalClient racing([&](const ByteBuffer& request) {
    const std::optional<JournalRequest> decoded = JournalRequest::Decode(request);
    if (armed && decoded.has_value() && decoded->type == RequestType::kGetChangedSince &&
        decoded->changed_kind == RecordKind::kSubnet) {
      armed = false;
      arm(2);
    }
    return server.HandleRequest(request);
  });
  CorrelationState state;
  state.Update(racing, now);  // First pass: full refetch, no delta reads.
  now += Duration::Minutes(1);
  armed = true;
  state.Update(racing, now);
  ASSERT_FALSE(armed) << "the second arm never landed";

  CorrelationReport incremental = state.Update(racing, now);
  // The pass that saw the arm also stored the gateway it makes.
  ASSERT_EQ(writer.GetGateways().size(), 1u);
  EXPECT_EQ(writer.GetGateways()[0].interface_ids.size(), 2u);
  CorrelationReport full = Correlate(writer, 24, now);
  ExpectReportsEqual(full, incremental, /*round=*/-1);
  EXPECT_EQ(incremental.gateways_inferred_from_mac, 1);
}

TEST(DiscoveryManagerJournalTest, AutoCorrelationRunsIncrementallyAfterTicks) {
  EventQueue events;
  FakeVantage vantage(&events);
  JournalServer server([&events]() { return events.Now(); });
  JournalClient client(&server);
  DiscoveryManager manager(&events, &client);
  manager.EnableAutoCorrelation();

  const MacAddress shared_mac(0, 0, 0x0c, 1, 2, 3);
  int run_index = 0;
  ModuleRegistration reg;
  reg.name = "arp";
  reg.min_interval = Duration::Hours(1);
  reg.max_interval = Duration::Hours(64);
  reg.make = [&]() {
    FakeModule::Config config;
    config.yield = 1;
    // Run 0 sees the MAC on one subnet; every later run sees it on a second
    // (RunFor below triggers two more runs; both must land on subnet two or
    // the gateway would grow a third arm).
    config.on_complete = [&]() {
      InterfaceObservation obs;
      obs.ip = Ipv4Address(128, 138, run_index == 0 ? 238 : 240, 1);
      obs.mac = shared_mac;
      obs.mask = SubnetMask::FromPrefixLength(24);
      client.StoreInterface(obs, DiscoverySource::kArpWatch);
      ++run_index;
    };
    return std::make_unique<FakeModule>("arp", &vantage.host, config);
  };
  manager.RegisterModule(std::move(reg));

  manager.Tick();
  // One interface, one MAC group: nothing to infer yet.
  EXPECT_EQ(manager.last_correlation().gateways_inferred_from_mac, 0);
  EXPECT_TRUE(client.GetGateways().empty());

  manager.RunFor(Duration::Hours(2));
  ASSERT_GE(run_index, 2);
  // The second sighting arrived through the change feed; the tick's pass
  // inferred the gateway without refetching the Journal.
  EXPECT_EQ(manager.last_correlation().gateways_inferred_from_mac, 1);
  ASSERT_EQ(client.GetGateways().size(), 1u);
  EXPECT_EQ(client.GetGateways()[0].interface_ids.size(), 2u);
  EXPECT_GT(manager.correlation_state().incremental_passes(), 0);
  // Growth attribution still charges the module only its own records: the
  // correlate-written gateway lands between ticks, outside the baseline.
  EXPECT_LE(manager.modules()[0].last_journal_growth, 1);
}

}  // namespace
}  // namespace fremont
