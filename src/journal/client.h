// JournalClient: the common access library the Explorer Modules, Discovery
// Manager, and analysis/presentation programs use to talk to the Journal
// Server.
//
// The client serializes each call through the full wire protocol and hands
// the bytes to a Transport. The default transport is an in-process call into
// a JournalServer; a socket transport would carry the same bytes.
//
// Protocol v2 client machinery lives here too:
//  - StoreBatch() ships N writes in one round trip (see JournalBatchWriter
//    for the buffering front end explorers use).
//  - EnableQueryCache() attaches a JournalQueryCache that answers repeated
//    Get*/GetStats calls from memory while the Journal's mutation generation
//    is unchanged.
//  - RoundTrip() reuses one scratch encode buffer across requests instead of
//    allocating per call.

#ifndef SRC_JOURNAL_CLIENT_H_
#define SRC_JOURNAL_CLIENT_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/journal/protocol.h"
#include "src/journal/query_cache.h"
#include "src/journal/server.h"

namespace fremont {

class JournalBatchWriter;
template <typename Record>
class MirroredTable;

class JournalClient {
 public:
  using Transport = std::function<ByteBuffer(const ByteBuffer&)>;

  explicit JournalClient(Transport transport) : transport_(std::move(transport)) {}
  // Convenience: direct in-process connection to a server.
  explicit JournalClient(JournalServer* server)
      : transport_([server](const ByteBuffer& req) { return server->HandleRequest(req); }) {}
  ~JournalClient();
  JournalClient(const JournalClient&) = delete;
  JournalClient& operator=(const JournalClient&) = delete;

  struct StoreResult {
    RecordId id = kInvalidRecordId;
    bool created = false;
    bool changed = false;
    bool ok = false;
  };

  StoreResult StoreInterface(const InterfaceObservation& obs, DiscoverySource source);
  StoreResult StoreGateway(const GatewayObservation& obs, DiscoverySource source);
  StoreResult StoreSubnet(const SubnetObservation& obs, DiscoverySource source);
  // v2: ships `items` (store/delete requests) as one kBatch round trip and
  // returns one result per item, in order. The span form encodes straight
  // from the caller's buffer — JournalBatchWriter flushes its slot pool
  // through it without moving or destroying the queued requests.
  std::vector<BatchItemResult> StoreBatch(std::vector<JournalRequest> items);
  std::vector<BatchItemResult> StoreBatch(const JournalRequest* items, size_t count);

  std::vector<InterfaceRecord> GetInterfaces(const Selector& selector = Selector::All());
  // Convenience point lookup.
  std::optional<InterfaceRecord> GetInterfaceById(RecordId id);
  std::vector<GatewayRecord> GetGateways();
  std::vector<SubnetRecord> GetSubnets();

  // v2: delta read from the Journal change feed. Returns the records of
  // `kind` that changed after `since_generation` (the vector matching `kind`
  // is populated) plus the ids of deleted ones, and the generation the delta
  // is current to. status kFullResyncRequired means `since_generation`
  // predates the server's changelog horizon: do a full Get instead.
  struct DeltaResult {
    ResponseStatus status = ResponseStatus::kMalformedRequest;
    std::vector<InterfaceRecord> interfaces;
    std::vector<GatewayRecord> gateways;
    std::vector<SubnetRecord> subnets;
    std::vector<RecordId> tombstones;
    uint64_t generation = 0;
    bool ok() const { return status == ResponseStatus::kOk; }
    size_t record_count() const {
      return interfaces.size() + gateways.size() + subnets.size() + tombstones.size();
    }
  };
  DeltaResult GetChangedSince(RecordKind kind, uint64_t since_generation);

  // v2 serving ops: registers a push subscription with the serving layer
  // attached to the server (see SubscriptionBroker / serve::ServeService).
  // `channel_id` names a push channel previously registered with the serving
  // layer, `view_mask` selects materialized views (serve::ViewBit), and
  // `since_generation` is the resume cursor (0 = only future updates... the
  // serving layer treats 0 as "everything", so a fresh subscriber gets an
  // immediate catch-up push). Returns the subscription id and the server's
  // current generation.
  struct SubscribeResult {
    bool ok = false;
    uint32_t subscriber_id = 0;
    uint64_t generation = 0;
  };
  SubscribeResult Subscribe(uint32_t channel_id, uint16_t view_mask, uint64_t since_generation);
  bool Unsubscribe(uint32_t subscriber_id);

  bool DeleteInterface(RecordId id);
  bool DeleteGateway(RecordId id);
  bool DeleteSubnet(RecordId id);

  JournalStats GetStats();

  // v2 knobs ------------------------------------------------------------------

  // Preferred flush threshold for JournalBatchWriters on this client.
  // 0 turns batching off: writers degenerate to eager per-record stores.
  void set_store_batch_size(size_t n) { store_batch_size_ = n; }
  size_t store_batch_size() const { return store_batch_size_; }

  // Attaches a JournalQueryCache. `exclusive` promises that every mutation of
  // the Journal flows through THIS client, which lets repeated queries be
  // answered with zero round trips; non-exclusive clients always revalidate
  // on the wire (whole tables by a change-feed delta, the rest by a
  // conditional get).
  void EnableQueryCache(bool exclusive = true);
  JournalQueryCache* query_cache() { return cache_.get(); }

  // Generation stamped on the most recent response seen by this client.
  uint64_t last_seen_generation() const { return last_seen_generation_; }

  uint64_t requests_sent() const { return requests_sent_; }

 private:
  friend class JournalBatchWriter;
  friend class JournalQueryCache;
  template <typename Record>
  friend class MirroredTable;

  JournalResponse RoundTrip(const JournalRequest& request);
  // Ships whatever is in scratch_ and decodes the reply. `reusable` is the
  // scratch capacity before this encode, for the bytes-reused counter.
  JournalResponse Transact(size_t reusable);
  // Any read issued while attached writers hold buffered stores must observe
  // those stores: flush them first (read-your-writes).
  void FlushAttachedWriters();
  void AttachWriter(JournalBatchWriter* writer);
  void DetachWriter(JournalBatchWriter* writer);

  Transport transport_;
  uint64_t requests_sent_ = 0;
  uint64_t last_seen_generation_ = 0;
  size_t store_batch_size_ = 64;
  ByteWriter scratch_;  // Request encode buffer, reused across round trips.
  std::vector<JournalBatchWriter*> writers_;
  std::unique_ptr<JournalQueryCache> cache_;
};

}  // namespace fremont

#endif  // SRC_JOURNAL_CLIENT_H_
