// Journal Server wire protocol.
//
// The 1993 system's modules all spoke to the Journal Server over BSD sockets
// "through a common library of access and data transfer routines". This is
// that protocol: requests and responses are length-delimited byte strings.
// In this reproduction the transport is an in-process function call, but
// every request round-trips through the codec, so the serialization layer is
// exercised exactly as it would be over a socket.
//
// Requests: Store{Interface,Gateway,Subnet}, Get{Interfaces,Gateways,
// Subnets}, Delete{Interface,Gateway,Subnet}, GetStats. Get requests carry a
// selector; Get responses may return multiple records (paper: "The Get
// function may return multiple data records depending on the selection
// criteria in the request").
//
// Protocol v2 (additive, v1 bytes decode unchanged):
//  - kBatch carries N heterogeneous store/delete sub-requests, each with an
//    optional client-stamped observation time, and the response returns one
//    BatchItemResult per item.
//  - Every response is stamped with the Journal's mutation generation; Get
//    requests may carry `if_generation` (encoded only when nonzero, as a
//    trailing field v1 decoders never wrote) and receive kNotModified when
//    the Journal has not mutated since — the record payload is skipped.
//  - kGetChangedSince{kind, since_generation} returns only the records of
//    `kind` that changed after `since_generation`, plus the ids of deleted
//    ones (tombstones — which Selector::kModifiedSince cannot express), or
//    kFullResyncRequired when `since_generation` predates the Journal's
//    changelog horizon. See DESIGN.md §11.
//  - v2 request frames (kBatch, kGetChangedSince) may carry the sender's
//    telemetry SpanContext as a trailing tagged field, so one trace links a
//    probe's batch flush to the server-side store and a correlation pass to
//    the deltas it consumed. v1 frames never carry it (their trailing bytes
//    already mean `if_generation`), and the tag is only consumed when it
//    validates — absent context decodes to the zero SpanContext. See
//    DESIGN.md §13.
//  - Serving ops (DESIGN.md §15): kSubscribe registers a push subscription
//    (subscriber_id names a pre-registered push channel; since_generation is
//    the resume cursor; view_mask selects materialized views), kUnsubscribe
//    cancels it, and kPushUpdate is the server→client invalidation frame the
//    serving layer emits over a subscriber's push channel — it never arrives
//    at the server as a request. All three are dispatched to the attached
//    SubscriptionBroker (the fremont_serve service); a server without one
//    rejects them as malformed.

#ifndef SRC_JOURNAL_PROTOCOL_H_
#define SRC_JOURNAL_PROTOCOL_H_

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/journal/records.h"
#include "src/telemetry/trace.h"

namespace fremont {

enum class RequestType : uint8_t {
  kStoreInterface = 1,
  kStoreGateway = 2,
  kStoreSubnet = 3,
  kGetInterfaces = 4,
  kGetGateways = 5,
  kGetSubnets = 6,
  kDeleteInterface = 7,
  kDeleteGateway = 8,
  kDeleteSubnet = 9,
  kGetStats = 10,
  kBatch = 11,  // v2: N store/delete sub-requests, applied in one round trip.
  kGetChangedSince = 12,  // v2: delta read from the Journal change feed.
  kSubscribe = 13,    // v2: register a push subscription (serving layer).
  kUnsubscribe = 14,  // v2: cancel a push subscription.
  kPushUpdate = 15,   // v2: server→client view-invalidation frame.
};

// True for the request types that may appear inside a kBatch.
inline bool IsBatchableType(RequestType type) {
  switch (type) {
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet:
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
      return true;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
    case RequestType::kGetStats:
    case RequestType::kBatch:
    case RequestType::kGetChangedSince:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    case RequestType::kPushUpdate:
      return false;
  }
  return false;
}

// Stable lowercase name for telemetry keys and trace details.
inline const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kStoreInterface:
      return "store_interface";
    case RequestType::kStoreGateway:
      return "store_gateway";
    case RequestType::kStoreSubnet:
      return "store_subnet";
    case RequestType::kGetInterfaces:
      return "get_interfaces";
    case RequestType::kGetGateways:
      return "get_gateways";
    case RequestType::kGetSubnets:
      return "get_subnets";
    case RequestType::kDeleteInterface:
      return "delete_interface";
    case RequestType::kDeleteGateway:
      return "delete_gateway";
    case RequestType::kDeleteSubnet:
      return "delete_subnet";
    case RequestType::kGetStats:
      return "get_stats";
    case RequestType::kBatch:
      return "batch";
    case RequestType::kGetChangedSince:
      return "get_changed_since";
    case RequestType::kSubscribe:
      return "subscribe";
    case RequestType::kUnsubscribe:
      return "unsubscribe";
    case RequestType::kPushUpdate:
      return "push_update";
  }
  return "unknown";
}

// Selection criteria for Get requests.
struct Selector {
  enum class Kind : uint8_t {
    kAll = 0,
    kByIp = 1,
    kByMac = 2,
    kByName = 3,
    kInRange = 4,        // [ip, ip_hi], the AVL range scan.
    // last_changed >= since. Kept for v1 clients only (DESIGN.md §9):
    // nothing in src/ sends it since replication moved to the change feed,
    // but the server still answers it and the golden test freezes its
    // framing.
    kModifiedSince = 5,
    kById = 6,           // Exact record id.
  };
  Kind kind = Kind::kAll;
  Ipv4Address ip;
  Ipv4Address ip_hi;
  MacAddress mac;
  std::string name;
  SimTime since;
  RecordId record_id = kInvalidRecordId;

  static Selector All() { return {}; }
  static Selector ByIp(Ipv4Address ip);
  static Selector ByMac(MacAddress mac);
  static Selector ByName(std::string name);
  static Selector InRange(Ipv4Address lo, Ipv4Address hi);
  static Selector InSubnet(const Subnet& subnet);
  static Selector ModifiedSince(SimTime since);
  static Selector ById(RecordId id);

  void Encode(ByteWriter& writer) const;
  static std::optional<Selector> Decode(ByteReader& reader);
};

struct JournalRequest {
  RequestType type = RequestType::kGetStats;
  DiscoverySource source = DiscoverySource::kNone;  // For stores.
  std::optional<InterfaceObservation> interface_obs;
  std::optional<GatewayObservation> gateway_obs;
  std::optional<SubnetObservation> subnet_obs;
  Selector selector;
  RecordId delete_id = kInvalidRecordId;
  // v2: conditional Get/GetStats — "answer only if the Journal mutated since
  // generation N". 0 means unconditional, and 0 is also what v1 bytes decode
  // to (the field is a trailing optional on the wire).
  uint64_t if_generation = 0;
  // v2: batch items only — the simulated time the observation was made, so a
  // deferred flush stamps records exactly as an immediate store would have.
  std::optional<SimTime> obs_time;
  // v2: sub-requests for kBatch. Only batchable (store/delete) types.
  std::vector<JournalRequest> batch;
  // v2: kGetChangedSince — which record family, and the generation the
  // caller's snapshot was taken at (the response covers (since, now]).
  RecordKind changed_kind = RecordKind::kInterface;
  uint64_t since_generation = 0;
  // v2 serving ops. kSubscribe: the push-channel id the serving layer handed
  // out (0 means "assign one"), plus the resume cursor in since_generation.
  // kUnsubscribe: the subscription to cancel. kPushUpdate: the subscription
  // this frame addresses, the generation the views were refreshed to (in
  // since_generation), and the mask of views that changed past the
  // subscriber's cursor.
  uint32_t subscriber_id = 0;
  uint16_t view_mask = 0;
  // v2: the sender's span context, encoded as a trailing tagged field on
  // kBatch/kGetChangedSince frames only (v1 framing stays byte-identical).
  // The zero context means "no span" and is never put on the wire.
  telemetry::SpanContext span_ctx;

  // Appends this request to `writer` (the scratch-buffer hot path).
  void EncodeTo(ByteWriter& writer) const;
  ByteBuffer Encode() const;
  static std::optional<JournalRequest> Decode(const ByteBuffer& bytes);

  // Encodes a kBatch frame directly from a span of sub-requests —
  // byte-identical to wrapping them in a kBatch JournalRequest, without
  // constructing one. JournalBatchWriter flushes straight from its slot pool
  // through this. A valid `ctx` is appended as the trailing span-context
  // field; the zero context leaves the frame untouched.
  static void EncodeBatchFrame(ByteWriter& writer, DiscoverySource source,
                               const JournalRequest* items, size_t count,
                               const telemetry::SpanContext& ctx = telemetry::SpanContext{});

 private:
  // Decodes into `out` in place — batch items land directly in their slot of
  // the batch vector instead of bouncing through an optional and a move.
  static bool DecodeInto(JournalRequest& out, ByteReader& reader, bool inside_batch);
};

enum class ResponseStatus : uint8_t {
  kOk = 0,
  kMalformedRequest = 1,
  kNotFound = 2,
  kNotModified = 3,        // v2: conditional Get matched `if_generation`.
  kFullResyncRequired = 4, // v2: since_generation predates the changelog horizon.
};

// v2: per-item outcome of a kBatch request, in item order.
struct BatchItemResult {
  ResponseStatus status = ResponseStatus::kOk;
  RecordId record_id = kInvalidRecordId;
  bool created = false;
  bool changed = false;
};

struct JournalResponse {
  ResponseStatus status = ResponseStatus::kOk;
  // Store responses.
  RecordId record_id = kInvalidRecordId;
  bool created = false;
  bool changed = false;
  // Get responses (one vector populated according to the request type).
  std::vector<InterfaceRecord> interfaces;
  std::vector<GatewayRecord> gateways;
  std::vector<SubnetRecord> subnets;
  // Stats response.
  uint32_t interface_count = 0;
  uint32_t gateway_count = 0;
  uint32_t subnet_count = 0;
  // v2: the Journal's mutation generation after handling this request.
  uint64_t generation = 0;
  // v2: per-item results for kBatch.
  std::vector<BatchItemResult> batch_results;
  // v2: ids of records of the requested kind deleted since since_generation
  // (kGetChangedSince only). Trailing on the wire; absent decodes as empty.
  std::vector<RecordId> tombstones;

  ByteBuffer Encode() const;
  static std::optional<JournalResponse> Decode(const ByteBuffer& bytes);
};

}  // namespace fremont

#endif  // SRC_JOURNAL_PROTOCOL_H_
