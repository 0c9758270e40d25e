// Property tests over the Journal: random interleaved observations, deletes,
// and persistence cycles must preserve the store's structural invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/journal/client.h"
#include "src/journal/journal.h"
#include "src/journal/server.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/util/rng.h"

namespace fremont {
namespace {

// Structural invariants beyond CheckIndexes():
//   * every gateway's interface_ids resolve, and those interfaces point back;
//   * every subnet's gateway_ids resolve;
//   * no two interface records share the same (ip, mac) pair;
//   * timestamps are ordered: first_discovered <= last_changed <= last_verified.
void CheckStructuralInvariants(const Journal& journal) {
  ASSERT_TRUE(journal.CheckIndexes());

  std::set<std::pair<uint32_t, uint64_t>> pairs;
  for (const auto& rec : journal.AllInterfaces()) {
    EXPECT_LE(rec.ts.first_discovered, rec.ts.last_changed);
    EXPECT_LE(rec.ts.last_changed, rec.ts.last_verified);
    if (rec.mac.has_value()) {
      EXPECT_TRUE(pairs.insert({rec.ip.value(), rec.mac->ToU64()}).second)
          << "duplicate (ip, mac) record for " << rec.ip.ToString();
    }
    if (rec.gateway_id != kInvalidRecordId) {
      const GatewayRecord* gw = journal.GetGateway(rec.gateway_id);
      ASSERT_NE(gw, nullptr) << "dangling gateway id on interface " << rec.id;
      EXPECT_NE(std::find(gw->interface_ids.begin(), gw->interface_ids.end(), rec.id),
                gw->interface_ids.end())
          << "gateway " << gw->id << " does not list member interface " << rec.id;
    }
  }
  for (const auto& gw : journal.AllGateways()) {
    for (RecordId iface_id : gw.interface_ids) {
      const InterfaceRecord* rec = journal.GetInterface(iface_id);
      ASSERT_NE(rec, nullptr) << "gateway " << gw.id << " lists dead interface " << iface_id;
      EXPECT_EQ(rec->gateway_id, gw.id);
    }
  }
  for (const auto& subnet : journal.AllSubnets()) {
    for (RecordId gw_id : subnet.gateway_ids) {
      EXPECT_NE(journal.GetGateway(gw_id), nullptr)
          << "subnet " << subnet.subnet.ToString() << " lists dead gateway " << gw_id;
    }
  }
}

class JournalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalPropertyTest, RandomOperationSoak) {
  Rng rng(GetParam());
  Journal journal;
  SimTime now = SimTime::Epoch();

  // A small universe so collisions (same IP, different MAC etc.) are common.
  auto random_ip = [&]() {
    return Ipv4Address(128, 138, static_cast<uint8_t>(rng.Uniform(1, 6)),
                       static_cast<uint8_t>(rng.Uniform(1, 40)));
  };
  auto random_mac = [&]() { return MacAddress::FromIndex(static_cast<uint64_t>(rng.Uniform(0, 60))); };

  for (int step = 0; step < 3000; ++step) {
    now += Duration::Seconds(rng.Uniform(1, 600));
    switch (rng.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Interface observation (sometimes MAC-less, named, masked).
        InterfaceObservation obs;
        obs.ip = random_ip();
        if (rng.Bernoulli(0.7)) {
          obs.mac = random_mac();
        }
        if (rng.Bernoulli(0.3)) {
          obs.dns_name = "host" + std::to_string(rng.Uniform(0, 50)) + ".colorado.edu";
        }
        if (rng.Bernoulli(0.3)) {
          obs.mask = SubnetMask::FromPrefixLength(rng.Bernoulli(0.9) ? 24 : 16);
        }
        obs.rip_source = rng.Bernoulli(0.05);
        journal.StoreInterface(obs, DiscoverySource::kArpWatch, now);
        break;
      }
      case 4:
      case 5: {  // Gateway observation.
        GatewayObservation gw;
        const int ifaces = static_cast<int>(rng.Uniform(1, 3));
        for (int i = 0; i < ifaces; ++i) {
          gw.interface_ips.push_back(random_ip());
        }
        if (rng.Bernoulli(0.4)) {
          gw.name = "gw" + std::to_string(rng.Uniform(0, 10)) + ".colorado.edu";
        }
        if (rng.Bernoulli(0.6)) {
          gw.connected_subnets.push_back(Subnet(random_ip(), SubnetMask::FromPrefixLength(24)));
        }
        journal.StoreGateway(gw, DiscoverySource::kTraceroute, now);
        break;
      }
      case 6: {  // Subnet observation.
        SubnetObservation obs;
        obs.subnet = Subnet(random_ip(), SubnetMask::FromPrefixLength(24));
        obs.host_count = static_cast<int32_t>(rng.Uniform(-1, 56));
        journal.StoreSubnet(obs, DiscoverySource::kRipWatch, now);
        break;
      }
      case 7: {  // Random deletes.
        auto all = journal.AllInterfaces();
        if (!all.empty()) {
          journal.DeleteInterface(all[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(all.size()) - 1))].id);
        }
        break;
      }
      case 8: {  // Occasionally delete a gateway or subnet.
        if (rng.Bernoulli(0.5)) {
          auto gateways = journal.AllGateways();
          if (!gateways.empty()) {
            journal.DeleteGateway(gateways[static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(gateways.size()) - 1))].id);
          }
        } else {
          auto subnets = journal.AllSubnets();
          if (!subnets.empty()) {
            journal.DeleteSubnet(subnets[static_cast<size_t>(
                rng.Uniform(0, static_cast<int64_t>(subnets.size()) - 1))].id);
          }
        }
        break;
      }
    }
    if (step % 500 == 499) {
      CheckStructuralInvariants(journal);
    }
  }
  CheckStructuralInvariants(journal);

  // Persistence cycle preserves everything.
  ByteWriter writer;
  journal.EncodeAll(writer);
  Journal loaded;
  ByteReader reader(writer.buffer());
  ASSERT_TRUE(loaded.DecodeAll(reader));
  CheckStructuralInvariants(loaded);
  EXPECT_EQ(loaded.Stats().interface_count, journal.Stats().interface_count);
  EXPECT_EQ(loaded.Stats().gateway_count, journal.Stats().gateway_count);
  EXPECT_EQ(loaded.Stats().subnet_count, journal.Stats().subnet_count);

  // Modification order survives the round trip.
  auto before = journal.AllInterfaces();
  auto after = loaded.AllInterfaces();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].id, after[i].id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 1993u, 0xabcdefu));

// Encodes a snapshot so "byte-identical" means exactly that: same records,
// same field bytes, same order.
std::vector<uint8_t> EncodeSnapshot(const std::vector<InterfaceRecord>& records) {
  ByteWriter writer;
  for (const auto& rec : records) {
    rec.Encode(writer);
  }
  return writer.buffer();
}

class ChangeFeedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// A cache kept current purely through the change feed must reconstruct the
// exact full-fetch snapshot after any interleaving of stores and deletes —
// including across changelog compaction (repeated touches of the same
// record) and horizon evictions (the tiny capacity below forces the reader
// past the horizon, exercising the full-resync fallback too).
TEST_P(ChangeFeedPropertyTest, DeltaPatchedSnapshotMatchesFullFetch) {
  Rng rng(GetParam());
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  server.journal().set_changelog_capacity(32);
  JournalClient writer(&server);
  JournalClient reader(&server);
  // Every reader lookup validates over the wire, by delta patch when
  // servable and full refetch when not.
  reader.EnableQueryCache();
  JournalClient fresh(&server);  // Uncached reference reader.
  auto& metrics = telemetry::MetricsRegistry::Global();
  const uint64_t patches_before =
      metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->value();
  const uint64_t resyncs_before =
      metrics.GetCounter(telemetry::names::kJournalClientFullResyncs)->value();

  auto random_ip = [&]() {
    return Ipv4Address(128, 138, static_cast<uint8_t>(rng.Uniform(1, 4)),
                       static_cast<uint8_t>(rng.Uniform(1, 30)));
  };

  for (int step = 0; step < 1200; ++step) {
    now += Duration::Seconds(rng.Uniform(1, 600));
    if (rng.Bernoulli(0.8)) {
      InterfaceObservation obs;
      obs.ip = random_ip();
      if (rng.Bernoulli(0.7)) {
        obs.mac = MacAddress::FromIndex(static_cast<uint64_t>(rng.Uniform(0, 40)));
      }
      if (rng.Bernoulli(0.3)) {
        obs.dns_name = "host" + std::to_string(rng.Uniform(0, 30)) + ".colorado.edu";
      }
      if (rng.Bernoulli(0.3)) {
        obs.mask = SubnetMask::FromPrefixLength(24);
      }
      writer.StoreInterface(obs, DiscoverySource::kArpWatch);
    } else {
      auto all = fresh.GetInterfaces();
      if (!all.empty()) {
        writer.DeleteInterface(all[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(all.size()) - 1))].id);
      }
    }
    // Read cadence varies with the seed: short gaps stay inside the 32-entry
    // changelog (delta patches), long gaps fall off the horizon (resyncs).
    if (step % static_cast<int>(rng.Uniform(3, 60)) == 0) {
      ASSERT_EQ(EncodeSnapshot(reader.GetInterfaces()), EncodeSnapshot(fresh.GetInterfaces()))
          << "patched snapshot diverged at step " << step;
    }
  }
  ASSERT_EQ(EncodeSnapshot(reader.GetInterfaces()), EncodeSnapshot(fresh.GetInterfaces()));

  // The run must actually have exercised both repair paths. Only the reader
  // asks the change feed, so the process-wide counters' growth is its own.
  EXPECT_GT(metrics.GetCounter(telemetry::names::kJournalClientCacheHits)->value(),
            patches_before)
      << "no lookup was served by a delta patch";
  EXPECT_GT(metrics.GetCounter(telemetry::names::kJournalClientFullResyncs)->value(),
            resyncs_before)
      << "the changelog horizon was never crossed";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChangeFeedPropertyTest,
                         ::testing::Values(7u, 8u, 9u, 1993u));

}  // namespace
}  // namespace fremont
