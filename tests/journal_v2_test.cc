// Protocol v2 equivalence property: the same discovery campaign must leave
// the Journal Server in a byte-identical state whether the modules store
// per-record (the v1 wire behavior, batch size 0), through small batches, or
// through batch-64 with the client query cache enabled. Batching defers
// stores but stamps each with its observation time, and reads flush buffered
// writes first, so no explorer can observe — or record — a difference.

#include <gtest/gtest.h>

#include "src/explorer/arpwatch.h"
#include "src/journal/batch_writer.h"
#include "src/journal/change_feed_mirror.h"
#include "src/explorer/ripwatch.h"
#include "src/explorer/seq_ping.h"
#include "src/explorer/traceroute.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/correlate.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"
#include "src/telemetry/trace.h"

namespace fremont {
namespace {

// A small campus keeps the three pipeline runs fast while still exercising
// every store type (interfaces, gateways, subnets) and the correlation pass.
CampusParams SmallCampus() {
  CampusParams params;
  params.assigned_subnets = 12;
  params.connected_subnets = 11;
  params.faulty_gateway_subnets = 2;
  params.dns_registered_subnets = 9;
  params.dns_named_gateways = 3;
  return params;
}

struct PipelineResult {
  ByteBuffer journal_bytes;
  uint64_t rpcs = 0;
  bool indexes_ok = false;
};

PipelineResult RunPipeline(size_t batch_size, bool use_cache) {
  Simulator sim(1993);
  Campus campus = BuildCampus(sim, SmallCampus());
  JournalServer server([&sim]() { return sim.Now(); });
  JournalClient client(&server);
  client.set_store_batch_size(batch_size);
  if (use_cache) {
    client.EnableQueryCache();
  }
  sim.RunFor(Duration::Minutes(5));  // RIP converges, ARP caches warm.

  RipWatch rip(campus.vantage, &client, {.watch = Duration::Minutes(2)});
  rip.Run();
  {
    ArpWatch arp(campus.vantage, &client, {.watch = Duration::Minutes(30)});
    arp.Run();
  }
  SeqPing ping(campus.vantage, &client);
  ping.Run();
  Traceroute trace(campus.vantage, &client);
  trace.Run();
  Correlate(client);

  PipelineResult result;
  ByteWriter writer;
  server.journal().EncodeAll(writer);
  result.journal_bytes = writer.TakeBuffer();
  result.rpcs = client.requests_sent();
  result.indexes_ok = server.journal().CheckIndexes();
  return result;
}

TEST(JournalV2EquivalenceTest, BatchedPipelineMatchesPerRecordByteForByte) {
  PipelineResult v1 = RunPipeline(/*batch_size=*/0, /*use_cache=*/false);
  PipelineResult batched = RunPipeline(/*batch_size=*/64, /*use_cache=*/true);

  EXPECT_TRUE(v1.indexes_ok);
  EXPECT_TRUE(batched.indexes_ok);
  ASSERT_FALSE(v1.journal_bytes.empty());
  EXPECT_EQ(v1.journal_bytes, batched.journal_bytes);

  // The whole point of v2: the same campaign takes far fewer round trips.
  EXPECT_LT(batched.rpcs, v1.rpcs / 2);
}

// Regression: the exclusive query cache's zero-round-trip path must flush
// attached batch writers first. Buffered stores don't bump the generation, so
// without the flush the generation-equality check "proves" a stale entry
// current and the read silently misses every queued write.
TEST(JournalV2QueryCacheTest, ExclusiveCacheObservesBufferedWrites) {
  SimTime now = SimTime::FromMicros(1000);
  JournalServer server([&now]() { return now; });
  JournalClient client(&server);
  client.set_store_batch_size(64);
  client.EnableQueryCache(/*exclusive=*/true);
  JournalBatchWriter writer(&client);

  InterfaceObservation a;
  a.ip = Ipv4Address(10, 0, 0, 1);
  writer.StoreInterface(a, DiscoverySource::kArpWatch);
  EXPECT_EQ(writer.pending(), 1u);
  EXPECT_EQ(client.GetInterfaces().size(), 1u);  // Flushes, then caches.

  InterfaceObservation b;
  b.ip = Ipv4Address(10, 0, 0, 2);
  writer.StoreInterface(b, DiscoverySource::kArpWatch);
  EXPECT_EQ(writer.pending(), 1u);
  // A cached read with a write still queued: read-your-writes.
  EXPECT_EQ(client.GetInterfaces().size(), 2u);
  EXPECT_EQ(writer.pending(), 0u);
}

// Regression: a long-buffered store flushing after another module already
// verified the same record carries an older observation stamp; it must not
// rewind last_verified/last_wire_verified — an ordering eager v1 stores could
// never produce.
TEST(JournalV2StampTest, LateFlushedStoreCannotRewindVerificationStamps) {
  SimTime now = SimTime::FromMicros(0);
  JournalServer server([&now]() { return now; });
  JournalClient client(&server);

  InterfaceObservation obs;
  obs.ip = Ipv4Address(10, 0, 0, 7);
  obs.mac = MacAddress(0x08, 0x00, 0x20, 9, 9, 9);
  now = SimTime::FromMicros(10'000'000);
  ASSERT_TRUE(client.StoreInterface(obs, DiscoverySource::kSeqPing).ok);

  // The same interface seen at t=5s by a module whose writer only flushes at
  // t=12s (ArpWatch holds stores until Stop()).
  JournalRequest late;
  late.type = RequestType::kStoreInterface;
  late.source = DiscoverySource::kArpWatch;
  late.interface_obs = obs;
  late.obs_time = SimTime::FromMicros(5'000'000);
  now = SimTime::FromMicros(12'000'000);
  auto results = client.StoreBatch({late});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, ResponseStatus::kOk);

  auto records = client.GetInterfaces();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ts.last_verified.ToMicros(), 10'000'000);
  EXPECT_EQ(records[0].ts.last_wire_verified.ToMicros(), 10'000'000);
}

// Regression: the batch writer's slot pool re-fills existing JournalRequests;
// a delete reusing a store slot must not transmit the store's leftover source
// bits (or any other stale field) on the wire.
TEST(JournalV2BatchWriterTest, ReusedSlotDoesNotLeakPreviousItemOntoWire) {
  SimTime now = SimTime::FromMicros(1000);
  JournalServer server([&now]() { return now; });
  std::vector<JournalRequest> batches;
  JournalClient client([&](const ByteBuffer& bytes) {
    if (auto req = JournalRequest::Decode(bytes);
        req.has_value() && req->type == RequestType::kBatch) {
      batches.push_back(*req);
    }
    return server.HandleRequest(bytes);
  });
  client.set_store_batch_size(1);  // Flush per item: slot 0 is reused each time.
  JournalBatchWriter writer(&client);

  InterfaceObservation obs;
  obs.ip = Ipv4Address(10, 1, 2, 3);
  writer.StoreInterface(obs, DiscoverySource::kArpWatch);
  const auto records = server.journal().AllInterfaces();
  ASSERT_EQ(records.size(), 1u);
  writer.DeleteInterface(records[0].id);

  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[1].batch.size(), 1u);
  const JournalRequest& del = batches[1].batch[0];
  EXPECT_EQ(del.type, RequestType::kDeleteInterface);
  EXPECT_EQ(del.delete_id, records[0].id);
  EXPECT_EQ(del.source, DiscoverySource::kNone);
  EXPECT_FALSE(del.interface_obs.has_value());
}

TEST(JournalV2EquivalenceTest, SmallBatchesMatchToo) {
  PipelineResult v1 = RunPipeline(/*batch_size=*/0, /*use_cache=*/false);
  PipelineResult small = RunPipeline(/*batch_size=*/3, /*use_cache=*/false);
  EXPECT_TRUE(small.indexes_ok);
  EXPECT_EQ(v1.journal_bytes, small.journal_bytes);
  EXPECT_LT(small.rpcs, v1.rpcs);
}

// A delete must reach a delta consumer as a tombstone — and a cached reader
// patching from that delta must drop the record, not resurrect it.
TEST(JournalV2ChangeFeedTest, TombstonesPropagateThroughDeltaAndPatchedCache) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient writer(&server);
  JournalClient reader(&server);
  reader.EnableQueryCache(/*exclusive=*/false);

  std::vector<RecordId> ids;
  for (uint32_t i = 0; i < 4; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, 1, static_cast<uint8_t>(10 + i));
    obs.mac = MacAddress::FromIndex(i);
    ids.push_back(writer.StoreInterface(obs, DiscoverySource::kArpWatch).id);
  }
  ASSERT_EQ(reader.GetInterfaces().size(), 4u);  // Prime the cache.
  const uint64_t primed_generation = reader.last_seen_generation();

  now += Duration::Seconds(30);
  ASSERT_TRUE(writer.DeleteInterface(ids[1]));

  // The raw delta carries the delete as a tombstone id, not a record.
  JournalClient::DeltaResult delta =
      writer.GetChangedSince(RecordKind::kInterface, primed_generation);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta.interfaces.empty());
  ASSERT_EQ(delta.tombstones.size(), 1u);
  EXPECT_EQ(delta.tombstones[0], ids[1]);

  // The cached reader repairs from the same feed and the record is gone.
  auto patched = reader.GetInterfaces();
  ASSERT_EQ(patched.size(), 3u);
  for (const auto& rec : patched) {
    EXPECT_NE(rec.id, ids[1]);
  }
  EXPECT_GT(reader.query_cache()->stats().patches, 0u);

  // Delete overrides store in the compacted changelog: a record stored and
  // then deleted after `since` must not surface as a changed record.
  now += Duration::Seconds(30);
  const uint64_t before_churn = writer.last_seen_generation();
  InterfaceObservation churn;
  churn.ip = Ipv4Address(128, 138, 1, 99);
  churn.mac = MacAddress::FromIndex(99);
  const RecordId churn_id = writer.StoreInterface(churn, DiscoverySource::kArpWatch).id;
  ASSERT_TRUE(writer.DeleteInterface(churn_id));
  delta = writer.GetChangedSince(RecordKind::kInterface, before_churn);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta.interfaces.empty());
  ASSERT_EQ(delta.tombstones.size(), 1u);
  EXPECT_EQ(delta.tombstones[0], churn_id);
  EXPECT_EQ(reader.GetInterfaces().size(), 3u);
}

// The cache's "patched" trace breadcrumb reports the delta it applied: the
// changed records and the tombstones, each in its own field.
TEST(JournalV2QueryCacheTest, PatchedBreadcrumbCountsChangedRecordsAndTombstones) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient writer(&server);
  JournalClient reader(&server);
  reader.EnableQueryCache(/*exclusive=*/false);

  std::vector<InterfaceObservation> observations(3);
  std::vector<RecordId> ids;
  for (uint32_t i = 0; i < observations.size(); ++i) {
    observations[i].ip = Ipv4Address(128, 138, 3, static_cast<uint8_t>(10 + i));
    observations[i].mac = MacAddress::FromIndex(i);
    ids.push_back(writer.StoreInterface(observations[i], DiscoverySource::kArpWatch).id);
  }
  ASSERT_EQ(reader.GetInterfaces().size(), 3u);  // Prime the cache.

  // Two changed records (one renamed, one new) and one tombstone.
  now += Duration::Seconds(30);
  observations[0].dns_name = "renamed.colorado.edu";
  writer.StoreInterface(observations[0], DiscoverySource::kDns);
  InterfaceObservation added;
  added.ip = Ipv4Address(128, 138, 3, 99);
  added.mac = MacAddress::FromIndex(99);
  writer.StoreInterface(added, DiscoverySource::kArpWatch);
  ASSERT_TRUE(writer.DeleteInterface(ids[1]));

  auto& tracer = telemetry::Tracer::Global();
  tracer.Clear();
  ASSERT_EQ(reader.GetInterfaces().size(), 3u);
  std::vector<std::string> breadcrumbs;
  for (const auto& event : tracer.Events()) {
    if (event.module == "query_cache") {
      breadcrumbs.push_back(event.detail);
    }
  }
  ASSERT_EQ(breadcrumbs.size(), 1u);
  EXPECT_EQ(breadcrumbs[0], "patched kind=0 records=2 tombstones=1");
}

// Asking for changes from before the changelog horizon must not return a
// partial answer: the server says full-resync, and the client surfaces it.
TEST(JournalV2ChangeFeedTest, HorizonEvictionForcesFullResync) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  server.journal().set_changelog_capacity(4);
  JournalClient client(&server);

  for (uint32_t i = 0; i < 12; ++i) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, 2, static_cast<uint8_t>(1 + i));
    client.StoreInterface(obs, DiscoverySource::kArpWatch);
  }
  // Generation 1 predates the 4-entry window after 12 distinct stores.
  JournalClient::DeltaResult stale = client.GetChangedSince(RecordKind::kInterface, 1);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status, ResponseStatus::kFullResyncRequired);

  // A since inside the window is still served incrementally.
  JournalClient::DeltaResult live =
      client.GetChangedSince(RecordKind::kInterface, client.last_seen_generation());
  EXPECT_TRUE(live.ok());
  EXPECT_TRUE(live.interfaces.empty());
  EXPECT_TRUE(live.tombstones.empty());
}

// The mirror reports each change next to the mirrored copy it replaces —
// deletions first, then stores in change-feed order — and its table stays
// byte-identical to a full fetch whether it was patched or refetched.
TEST(ChangeFeedMirrorTest, SyncReportsChangesNextToMirroredCopies) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient client(&server);
  auto store = [&](uint8_t host, const std::string& name) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, 1, host);
    obs.mac = MacAddress::FromIndex(host);
    obs.dns_name = name;
    return client.StoreInterface(obs, DiscoverySource::kArpWatch).id;
  };
  auto encode = [](const std::vector<InterfaceRecord>& records) {
    ByteWriter writer;
    for (const auto& rec : records) {
      rec.Encode(writer);
    }
    return writer.buffer();
  };
  const std::vector<RecordId> ids = {store(10, ""), store(11, ""), store(12, "")};

  ChangeFeedMirror mirror;
  EXPECT_EQ(mirror.generation(), 0u);
  const TableSync<InterfaceRecord> first = mirror.interfaces().Sync(client);
  EXPECT_TRUE(first.refetched);
  ASSERT_EQ(first.changes.size(), 3u);
  for (const auto& change : first.changes) {
    EXPECT_FALSE(change.before.has_value());
    EXPECT_TRUE(change.after.has_value());
  }
  // The other two tables have never synced, so the mirror as a whole is
  // current to nothing yet.
  EXPECT_EQ(*mirror.interfaces().generation(), client.last_seen_generation());
  EXPECT_EQ(mirror.generation(), 0u);

  now += Duration::Seconds(30);
  store(10, "renamed.colorado.edu");
  store(11, "");  // Verify-only: its canonical position does not move.
  ASSERT_TRUE(client.DeleteInterface(ids[2]));
  const RecordId fresh = store(20, "");
  const TableSync<InterfaceRecord> second = mirror.interfaces().Sync(client);
  EXPECT_FALSE(second.refetched);
  ASSERT_EQ(second.changes.size(), 4u);
  EXPECT_EQ(second.changes[0].id, ids[2]);
  EXPECT_FALSE(second.changes[0].after.has_value());
  ASSERT_TRUE(second.changes[0].before.has_value());
  EXPECT_EQ(second.changes[0].before->ip, Ipv4Address(128, 138, 1, 12));
  EXPECT_EQ(second.changes[1].id, ids[0]);
  EXPECT_EQ(second.changes[1].before->dns_name, "");
  EXPECT_EQ(second.changes[1].after->dns_name, "renamed.colorado.edu");
  EXPECT_EQ(second.changes[2].id, ids[1]);
  EXPECT_EQ(second.changes[2].before->ts.last_changed, second.changes[2].after->ts.last_changed);
  EXPECT_EQ(second.changes[3].id, fresh);
  EXPECT_FALSE(second.changes[3].before.has_value());
  EXPECT_EQ(encode(mirror.interfaces().records()), encode(client.GetInterfaces()));

  // Past the changelog horizon the table is refetched, and the report is
  // the difference from the mirrored copy: the deletion still shows.
  server.journal().set_changelog_capacity(2);
  now += Duration::Seconds(30);
  ASSERT_TRUE(client.DeleteInterface(ids[1]));
  for (uint8_t host = 30; host < 34; ++host) {
    store(host, "");
  }
  const TableSync<InterfaceRecord> third = mirror.interfaces().Sync(client);
  EXPECT_TRUE(third.refetched);
  ASSERT_FALSE(third.changes.empty());
  EXPECT_EQ(third.changes[0].id, ids[1]);
  EXPECT_TRUE(third.changes[0].before.has_value());
  EXPECT_FALSE(third.changes[0].after.has_value());
  EXPECT_EQ(encode(mirror.interfaces().records()), encode(client.GetInterfaces()));

  // The mirror as a whole is current to the least current of its tables.
  const uint64_t interfaces_at = *mirror.interfaces().generation();
  store(40, "");
  EXPECT_FALSE(mirror.subnets().generation().has_value());
  mirror.subnets().Sync(client);
  mirror.gateways().Sync(client);
  EXPECT_GT(*mirror.subnets().generation(), interfaces_at);
  EXPECT_EQ(mirror.generation(), interfaces_at);
}

// A read that fails on the wire (a dropped connection: nothing decodes)
// changes nothing: the copy and its cursor stay put, no record is reported
// deleted, and the next sync converges. The same holds for the query
// cache's tables and for a mirror that refetches through them.
TEST(ChangeFeedMirrorTest, FailedReadLeavesTheCopyAndNextSyncConverges) {
  SimTime now = SimTime::Epoch();
  JournalServer server([&now]() { return now; });
  JournalClient writer(&server);
  auto store = [&](uint8_t host) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(128, 138, 2, host);
    obs.mac = MacAddress::FromIndex(host);
    return writer.StoreInterface(obs, DiscoverySource::kArpWatch).id;
  };
  auto encode = [](const std::vector<InterfaceRecord>& records) {
    ByteWriter out;
    for (const auto& rec : records) {
      rec.Encode(out);
    }
    return out.buffer();
  };
  bool up = false;
  auto transport = [&](const ByteBuffer& request) {
    return up ? server.HandleRequest(request) : ByteBuffer{};
  };
  JournalClient client(transport);
  JournalClient cached(transport);
  cached.EnableQueryCache(/*exclusive=*/false);
  const RecordId first = store(10);
  store(11);

  // Never synced: the refetch fails and the table stays unsynced.
  ChangeFeedMirror mirror;
  const TableSync<InterfaceRecord> down = mirror.interfaces().Sync(client);
  EXPECT_TRUE(down.failed);
  EXPECT_TRUE(down.changes.empty());
  EXPECT_FALSE(mirror.interfaces().generation().has_value());

  up = true;
  ASSERT_FALSE(mirror.interfaces().Sync(client).failed);
  ASSERT_EQ(mirror.interfaces().records().size(), 2u);
  ASSERT_EQ(cached.GetInterfaces().size(), 2u);
  ChangeFeedMirror through_cache;
  ASSERT_EQ(through_cache.interfaces().Sync(cached).changes.size(), 2u);
  const ByteBuffer held = encode(mirror.interfaces().records());
  const uint64_t cursor = *mirror.interfaces().generation();

  // The Journal moves on while the connection is down.
  now += Duration::Seconds(30);
  ASSERT_TRUE(writer.DeleteInterface(first));
  store(12);
  up = false;
  const TableSync<InterfaceRecord> failed = mirror.interfaces().Sync(client);
  EXPECT_TRUE(failed.failed);
  EXPECT_TRUE(failed.changes.empty());
  EXPECT_EQ(encode(mirror.interfaces().records()), held);
  EXPECT_EQ(*mirror.interfaces().generation(), cursor);
  EXPECT_EQ(encode(cached.GetInterfaces()), held);
  ChangeFeedMirror refetching;
  EXPECT_TRUE(refetching.interfaces().Sync(cached).failed);
  EXPECT_TRUE(through_cache.interfaces().Sync(cached).failed);
  EXPECT_EQ(encode(through_cache.interfaces().records()), held);

  up = true;
  const ByteBuffer full = encode(writer.GetInterfaces());
  const TableSync<InterfaceRecord> back = mirror.interfaces().Sync(client);
  EXPECT_FALSE(back.failed);
  EXPECT_FALSE(back.refetched);
  EXPECT_EQ(back.changes.size(), 2u);  // The deletion and the new record.
  EXPECT_EQ(encode(mirror.interfaces().records()), full);
  EXPECT_EQ(encode(cached.GetInterfaces()), full);
  EXPECT_FALSE(through_cache.interfaces().Sync(cached).failed);
  EXPECT_EQ(encode(through_cache.interfaces().records()), full);
  EXPECT_FALSE(refetching.interfaces().Sync(cached).failed);
  EXPECT_EQ(encode(refetching.interfaces().records()), full);
}

}  // namespace
}  // namespace fremont
