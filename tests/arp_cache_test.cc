// Tests for the per-host ARP cache.

#include "src/sim/arp_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/util/rng.h"

namespace fremont {
namespace {

const Ipv4Address kIp(10, 0, 0, 5);
const MacAddress kMacA(2, 0, 0, 0, 0, 1);
const MacAddress kMacB(2, 0, 0, 0, 0, 2);

TEST(ArpCacheTest, InsertAndLookup) {
  ArpCache cache;
  SimTime t0;
  EXPECT_FALSE(cache.Lookup(kIp, t0).has_value());
  cache.Update(kIp, kMacA, t0);
  auto mac = cache.Lookup(kIp, t0 + Duration::Minutes(5));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(*mac, kMacA);
}

TEST(ArpCacheTest, EntryExpires) {
  ArpCache cache(Duration::Minutes(20));
  SimTime t0;
  cache.Update(kIp, kMacA, t0);
  EXPECT_TRUE(cache.Contains(kIp, t0 + Duration::Minutes(19)));
  EXPECT_FALSE(cache.Contains(kIp, t0 + Duration::Minutes(21)));
}

TEST(ArpCacheTest, RefreshExtendsLifetime) {
  ArpCache cache(Duration::Minutes(20));
  SimTime t0;
  cache.Update(kIp, kMacA, t0);
  cache.Update(kIp, kMacA, t0 + Duration::Minutes(15));
  EXPECT_TRUE(cache.Contains(kIp, t0 + Duration::Minutes(30)));
}

TEST(ArpCacheTest, NewMacOverwritesSilently) {
  // The duplicate-IP failure mode: the cache keeps only the latest claimant,
  // which is exactly why the Journal's long memory is needed.
  ArpCache cache;
  SimTime t0;
  cache.Update(kIp, kMacA, t0);
  cache.Update(kIp, kMacB, t0 + Duration::Seconds(1));
  EXPECT_EQ(*cache.Lookup(kIp, t0 + Duration::Seconds(2)), kMacB);
  EXPECT_EQ(cache.RawSize(), 1u);
}

TEST(ArpCacheTest, SnapshotSkipsExpired) {
  ArpCache cache(Duration::Minutes(20));
  SimTime t0;
  cache.Update(kIp, kMacA, t0);
  cache.Update(Ipv4Address(10, 0, 0, 6), kMacB, t0 + Duration::Minutes(15));
  auto snapshot = cache.Snapshot(t0 + Duration::Minutes(25));
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].mac, kMacB);
  // Raw size still holds both until cleared.
  EXPECT_EQ(cache.RawSize(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.RawSize(), 0u);
}

TEST(ArpCacheTest, SnapshotPreservesInsertionTime) {
  ArpCache cache;
  SimTime t0;
  cache.Update(kIp, kMacA, t0);
  cache.Update(kIp, kMacA, t0 + Duration::Minutes(5));
  auto snapshot = cache.Snapshot(t0 + Duration::Minutes(6));
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].inserted, t0);
  EXPECT_EQ(snapshot[0].last_updated, t0 + Duration::Minutes(5));
}

// The cache is a sorted vector searched by binary search; a std::map keyed
// by the address value, with the same expiry rule, is the model it must
// match after every random Update, Lookup, Contains, Snapshot and Clear.
class ArpCacheModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArpCacheModelTest, MatchesOrderedMapModel) {
  const Duration timeout = Duration::Minutes(20);
  struct ModelEntry {
    MacAddress mac;
    SimTime inserted;
    SimTime last_updated;
  };
  auto live = [timeout](const ModelEntry& entry, SimTime now) {
    return !(now - entry.last_updated > timeout);
  };

  Rng rng(GetParam());
  // A small pool spread over the whole address space (both halves, so the
  // order is unsigned) makes repeats, refreshes and expiries common.
  constexpr int kPoolSize = 48;
  std::vector<Ipv4Address> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    pool.push_back(Ipv4Address(static_cast<uint32_t>(rng.Uniform(0, 0xffffffff))));
  }
  ArpCache cache(timeout);
  std::map<uint32_t, ModelEntry> model;
  SimTime now;
  for (int step = 0; step < 6000; ++step) {
    now += Duration::Seconds(rng.Uniform(0, 90));
    const Ipv4Address ip = pool[static_cast<size_t>(rng.Uniform(0, kPoolSize - 1))];
    const int64_t op = rng.Uniform(0, 99);
    if (op < 45) {
      const MacAddress mac = MacAddress::FromIndex(static_cast<uint64_t>(rng.Uniform(1, 4)));
      cache.Update(ip, mac, now);
      auto [it, inserted] = model.try_emplace(ip.value(), ModelEntry{mac, now, now});
      if (!inserted) {
        it->second.mac = mac;
        it->second.last_updated = now;
      }
    } else if (op < 75) {
      auto it = model.find(ip.value());
      const std::optional<MacAddress> got = cache.Lookup(ip, now);
      if (it == model.end() || !live(it->second, now)) {
        EXPECT_FALSE(got.has_value()) << "step " << step << " " << ip.ToString();
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step << " " << ip.ToString();
        EXPECT_EQ(*got, it->second.mac) << "step " << step;
      }
    } else if (op < 90) {
      auto it = model.find(ip.value());
      EXPECT_EQ(cache.Contains(ip, now), it != model.end() && live(it->second, now))
          << "step " << step << " " << ip.ToString();
    } else if (op < 99) {
      std::vector<ArpCache::Entry> expected;
      for (const auto& [value, entry] : model) {
        if (live(entry, now)) {
          expected.push_back(
              ArpCache::Entry{Ipv4Address(value), entry.mac, entry.inserted, entry.last_updated});
        }
      }
      const std::vector<ArpCache::Entry> snapshot = cache.Snapshot(now);
      ASSERT_EQ(snapshot.size(), expected.size()) << "step " << step;
      for (size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(snapshot[i].ip, expected[i].ip) << "step " << step << " position " << i;
        EXPECT_EQ(snapshot[i].mac, expected[i].mac) << "step " << step;
        EXPECT_EQ(snapshot[i].inserted, expected[i].inserted) << "step " << step;
        EXPECT_EQ(snapshot[i].last_updated, expected[i].last_updated) << "step " << step;
        if (i > 0) {
          EXPECT_LT(snapshot[i - 1].ip, snapshot[i].ip) << "snapshot not in ascending-IP order";
        }
      }
    } else {
      cache.Clear();
      model.clear();
    }
    ASSERT_EQ(cache.RawSize(), model.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArpCacheModelTest, ::testing::Values(1u, 7u, 1993u));

}  // namespace
}  // namespace fremont
