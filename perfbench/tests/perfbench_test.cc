// Tests of the benchmark itself: its drivers must leave Fremont's outputs
// exactly as the library's own loops do, tracing must not change them, and
// the span arithmetic must be right.

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "perfbench/src/meter.h"
#include "perfbench/src/serving.h"
#include "perfbench/src/span_log.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/journal/client.h"
#include "src/serve/views.h"
#include "src/util/bytes.h"

namespace perfbench {
namespace {

using fremont::Duration;

// Spans off again after each test, whatever it enabled.
class PerfbenchTest : public ::testing::Test {
 protected:
  void SetUp() override { SpanLog::Global().Clear(); }
  void TearDown() override {
    SpanLog::Global().set_enabled(false);
    SpanLog::Global().Clear();
  }
};

TEST_F(PerfbenchTest, UnrolledCampusLoopLeavesRunForJournalBytes) {
  CampusStack unrolled(1993, "");
  CampusStack library(1993, "");
  Tally tally;
  RunCampusSpan(unrolled, Duration::Hours(6), tally);
  library.manager.RunFor(Duration::Hours(6));
  EXPECT_EQ(unrolled.sim.Now(), library.sim.Now());
  EXPECT_EQ(JournalDigest(unrolled.server), JournalDigest(library.server));
  EXPECT_GT(tally.Total("manager.ticks"), 0.0);
}

TEST_F(PerfbenchTest, TracedCampusLeavesSameJournalBytes) {
  std::string digests[2];
  for (int traced = 0; traced < 2; ++traced) {
    SpanLog::Global().set_enabled(traced == 1);
    CampusStack stack(7, "");
    Tally tally;
    RunCampusSpan(stack, Duration::Hours(2), tally);
    SpanLog::Global().set_enabled(false);
    digests[traced] = JournalDigest(stack.server);
  }
  EXPECT_FALSE(SpanLog::Global().Collect().empty());
  EXPECT_EQ(digests[0], digests[1]);
}

// The serving phase over a pre-loaded Journal, then the Journal's digest and
// a cold view snapshot of it.
std::pair<std::string, std::string> ServeAndSnapshot(bool traced, Checks& checks) {
  SpanLog::Global().set_enabled(traced);
  PhaseClock clock;
  clock.Set(fremont::SimTime::Epoch() + Duration::Days(1));
  JournalMeter meter;
  fremont::JournalServer server([&clock] { return clock.Now(); });
  fremont::JournalClient client(meter.Wrap(&server));
  PreloadJournal(client, 11, kTopUpSubnets);
  Tally tally;
  NanosHistogram reads;
  RunServingPhase(server, clock, meter, 11, 20, tally, reads, checks);
  SpanLog::Global().set_enabled(false);
  const auto snapshot = fremont::serve::BuildViewSnapshot(
      client.GetInterfaces(), client.GetGateways(), client.GetSubnets(), clock.Now(),
      client.last_seen_generation());
  return {JournalDigest(server), snapshot.Serialize()};
}

TEST_F(PerfbenchTest, TracedServingLeavesSameJournalAndViews) {
  Checks checks;
  const auto plain = ServeAndSnapshot(false, checks);
  const auto traced = ServeAndSnapshot(true, checks);
  EXPECT_TRUE(checks.failures.empty()) << checks.failures.front();
  EXPECT_EQ(plain.first, traced.first);
  EXPECT_EQ(plain.second, traced.second);
  EXPECT_FALSE(SpanLog::Global().Collect().empty());
}

// Interface, gateway and subnet keys of a Journal: what a sharded sweep
// must discover whatever the shard count.
std::vector<std::string> JournalKeys(fremont::JournalClient& client) {
  std::vector<std::string> keys;
  for (const auto& rec : client.GetInterfaces()) {
    keys.push_back("interface " + rec.ip.ToString());
  }
  for (const auto& rec : client.GetGateways()) {
    std::vector<std::string> connected;
    for (const auto& subnet : rec.connected_subnets) {
      connected.push_back(subnet.ToString());
    }
    std::sort(connected.begin(), connected.end());
    std::string key = "gateway " + rec.name;
    for (const auto& subnet : connected) {
      key += "|" + subnet;
    }
    keys.push_back(std::move(key));
  }
  for (const auto& rec : client.GetSubnets()) {
    keys.push_back("subnet " + rec.subnet.ToString());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST_F(PerfbenchTest, ShardedSweepKeysMatchOneShard) {
  ShardedStack sharded(19930901, 4, 2, "");
  ShardedStack single(19930901, 1, 1, "");
  std::vector<fremont::ExplorerReport> reports;
  EXPECT_EQ(sharded.Sweep(&reports), 40u);
  EXPECT_EQ(single.Sweep(&reports), 40u);
  EXPECT_GT(sharded.sim.runtime()->cross_shard_posted(), 0u);
  EXPECT_EQ(JournalKeys(*sharded.clients.front()), JournalKeys(*single.clients.front()));
}

SpanRecord Span(const char* name, int64_t start, int64_t end, uint64_t id, uint64_t parent,
                uint32_t thread) {
  SpanRecord span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.id = id;
  span.parent = parent;
  span.thread = thread;
  return span;
}

TEST_F(PerfbenchTest, SelfTimeSubtractsChildrenOnEveryThread) {
  // A sweep on the control thread; one child on the same thread and two
  // overlapping children on a worker; a grandchild under the first of those.
  const std::vector<SpanRecord> spans = {
      Span("runtime.sweep", 0, 100, 1, 0, 0),   Span("journal.full", 10, 30, 2, 1, 0),
      Span("journal.batch", 20, 60, 3, 1, 1),   Span("journal.batch", 50, 80, 4, 1, 2),
      Span("serve.refresh", 25, 35, 5, 3, 1),
  };
  const std::vector<double> self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 30e-9);  // 100 minus the union [10, 80].
  EXPECT_DOUBLE_EQ(self[1], 20e-9);
  EXPECT_DOUBLE_EQ(self[2], 30e-9);  // 40 minus its child's 10.
  EXPECT_DOUBLE_EQ(self[3], 30e-9);
  EXPECT_DOUBLE_EQ(self[4], 10e-9);
  const auto by_layer = SelfSecondsByLayer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("journal"), 80e-9);
  EXPECT_DOUBLE_EQ(by_layer.at("runtime"), 30e-9);
}

TEST_F(PerfbenchTest, WorkerSpansNestUnderTheRemoteParent) {
  SpanLog& log = SpanLog::Global();
  log.set_enabled(true);
  uint64_t sweep_id = 0;
  {
    const ScopedSpan sweep("runtime.sweep");
    sweep_id = sweep.id();
    log.set_remote_parent(sweep_id);
    std::thread worker([] {
      const ScopedSpan outer("journal.batch");
      const ScopedSpan inner("journal.point");
    });
    worker.join();
    log.set_remote_parent(0);
  }
  log.set_enabled(false);
  const std::vector<SpanRecord> spans = log.Collect();
  ASSERT_EQ(spans.size(), 3u);
  uint64_t batch_id = 0;
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "journal.batch") {
      EXPECT_EQ(span.parent, sweep_id);
      EXPECT_NE(span.thread, spans.front().thread);
      batch_id = span.id;
    }
  }
  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "journal.point") {
      EXPECT_EQ(span.parent, batch_id);
    }
  }
  const std::vector<double> self = SelfSeconds(spans);
  double total = 0.0;
  for (double s : self) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, spans.front().seconds(), 1e-9);  // Nested on one timeline.
}

TEST_F(PerfbenchTest, EmptyGetIsAnAnswerNotAnError) {
  const fremont::ByteBuffer get = {static_cast<uint8_t>(fremont::RequestType::kGetGateways)};
  const fremont::ByteBuffer store = {static_cast<uint8_t>(fremont::RequestType::kStoreInterface)};
  auto status = [](fremont::ResponseStatus s) { return fremont::ByteBuffer{static_cast<uint8_t>(s)}; };
  EXPECT_FALSE(IsError(get, status(fremont::ResponseStatus::kNotFound)));
  EXPECT_FALSE(IsError(get, status(fremont::ResponseStatus::kNotModified)));
  EXPECT_FALSE(IsError(store, status(fremont::ResponseStatus::kOk)));
  EXPECT_TRUE(IsError(store, status(fremont::ResponseStatus::kNotFound)));
  EXPECT_TRUE(IsError(get, status(fremont::ResponseStatus::kMalformedRequest)));
  EXPECT_TRUE(IsError(get, {}));
}

TEST_F(PerfbenchTest, QuantilesInterpolate) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.99), 4.96);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  NanosHistogram histogram;
  for (int ns = 1; ns <= 100; ++ns) {
    histogram.Record(ns);
  }
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_NEAR(histogram.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 99.0, 1.0);
  NanosHistogram pooled;
  pooled.Merge(histogram);
  for (int ns = 101; ns <= 200; ++ns) {
    pooled.Record(ns);
  }
  EXPECT_EQ(pooled.count(), 200u);
  EXPECT_NEAR(pooled.Quantile(0.5), 100.0, 1.0);
  EXPECT_NEAR(pooled.Quantile(0.99), 198.0, 1.0);
}

}  // namespace
}  // namespace perfbench
