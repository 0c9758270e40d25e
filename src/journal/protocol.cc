#include "src/journal/protocol.h"

namespace fremont {

Selector Selector::ByIp(Ipv4Address ip) {
  Selector s;
  s.kind = Kind::kByIp;
  s.ip = ip;
  return s;
}

Selector Selector::ByMac(MacAddress mac) {
  Selector s;
  s.kind = Kind::kByMac;
  s.mac = mac;
  return s;
}

Selector Selector::ByName(std::string name) {
  Selector s;
  s.kind = Kind::kByName;
  s.name = std::move(name);
  return s;
}

Selector Selector::InRange(Ipv4Address lo, Ipv4Address hi) {
  Selector s;
  s.kind = Kind::kInRange;
  s.ip = lo;
  s.ip_hi = hi;
  return s;
}

Selector Selector::InSubnet(const Subnet& subnet) {
  return InRange(subnet.network(), subnet.BroadcastAddress());
}

Selector Selector::ModifiedSince(SimTime since) {
  Selector s;
  s.kind = Kind::kModifiedSince;
  s.since = since;
  return s;
}

Selector Selector::ById(RecordId id) {
  Selector s;
  s.kind = Kind::kById;
  s.record_id = id;
  return s;
}

void Selector::Encode(ByteWriter& writer) const {
  writer.WriteU8(static_cast<uint8_t>(kind));
  writer.WriteU32(ip.value());
  writer.WriteU32(ip_hi.value());
  writer.WriteBytes(mac.octets().data(), 6);
  writer.WriteString(name);
  writer.WriteI64(since.ToMicros());
  writer.WriteU32(record_id);
}

std::optional<Selector> Selector::Decode(ByteReader& reader) {
  Selector s;
  uint8_t kind = reader.ReadU8();
  if (kind > static_cast<uint8_t>(Kind::kById)) {
    return std::nullopt;
  }
  s.kind = static_cast<Kind>(kind);
  s.ip = Ipv4Address(reader.ReadU32());
  s.ip_hi = Ipv4Address(reader.ReadU32());
  std::array<uint8_t, 6> octets;
  if (reader.ReadInto(octets.data(), octets.size())) {
    s.mac = MacAddress(octets);
  }
  s.name = reader.ReadString();
  s.since = SimTime::FromMicros(reader.ReadI64());
  s.record_id = reader.ReadU32();
  if (!reader.ok()) {
    return std::nullopt;
  }
  return s;
}

namespace {
// Wire sentinel for "batch item carries no observation time".
constexpr int64_t kNoObsTime = INT64_MIN;

// Trailing span-context field on v2 frames: tag, length, then the three ids.
// The tag byte can never open a valid request (request types stop at
// kPushUpdate = 15, far below 0xC5), so a truncated-frame misread cannot
// alias it.
constexpr uint8_t kSpanContextTag = 0xC5;
constexpr uint8_t kSpanContextLen = 24;  // 3 × u64.

// The only frame types that may carry the span-context trailer: v1 types
// stay byte-frozen.
bool CarriesSpanContext(RequestType type) {
  return type == RequestType::kBatch || type == RequestType::kGetChangedSince;
}

void EncodeSpanContext(ByteWriter& writer, const telemetry::SpanContext& ctx) {
  if (!ctx.valid()) {
    return;
  }
  writer.WriteU8(kSpanContextTag);
  writer.WriteU8(kSpanContextLen);
  writer.WriteU64(ctx.trace_id);
  writer.WriteU64(ctx.span_id);
  writer.WriteU64(ctx.parent_span_id);
}

// True when a frame's type byte names a RequestType. Exhaustive rather than a
// range check, so a new enumerator is decodable as soon as it compiles.
bool IsRequestType(uint8_t byte) {
  switch (static_cast<RequestType>(byte)) {
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet:
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
    case RequestType::kGetStats:
    case RequestType::kBatch:
    case RequestType::kGetChangedSince:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    case RequestType::kPushUpdate:
      return true;
  }
  return false;
}
}  // namespace

void JournalRequest::EncodeBatchFrame(ByteWriter& writer, DiscoverySource source,
                                      const JournalRequest* items, size_t count,
                                      const telemetry::SpanContext& ctx) {
  writer.Reserve(16 + count * 104);
  writer.WriteU8(static_cast<uint8_t>(RequestType::kBatch));
  writer.WriteU16(SourceBit(source));
  writer.WriteU32(static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const JournalRequest& item = items[i];
    writer.WriteI64(item.obs_time.has_value() ? item.obs_time->ToMicros() : kNoObsTime);
    item.EncodeTo(writer);
  }
  EncodeSpanContext(writer, ctx);
}

void JournalRequest::EncodeTo(ByteWriter& writer) const {
  if (type == RequestType::kBatch) {
    EncodeBatchFrame(writer, source, batch.data(), batch.size(), span_ctx);
    return;
  }
  writer.Reserve(96);
  writer.WriteU8(static_cast<uint8_t>(type));
  writer.WriteU16(SourceBit(source));
  switch (type) {
    case RequestType::kStoreInterface:
      if (interface_obs.has_value()) {
        interface_obs->Encode(writer);
      }
      break;
    case RequestType::kStoreGateway:
      if (gateway_obs.has_value()) {
        gateway_obs->Encode(writer);
      }
      break;
    case RequestType::kStoreSubnet:
      if (subnet_obs.has_value()) {
        subnet_obs->Encode(writer);
      }
      break;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
      selector.Encode(writer);
      break;
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
      writer.WriteU32(delete_id);
      break;
    case RequestType::kGetStats:
      break;
    case RequestType::kBatch:
      break;  // Handled above via EncodeBatchFrame.
    case RequestType::kGetChangedSince:
      writer.WriteU8(static_cast<uint8_t>(changed_kind));
      writer.WriteU64(since_generation);
      break;
    case RequestType::kSubscribe:
    case RequestType::kPushUpdate:
      // Subscribe: channel id + view mask + resume cursor. PushUpdate reuses
      // the layout: subscription id + changed-view mask + refreshed-to
      // generation.
      writer.WriteU32(subscriber_id);
      writer.WriteU16(view_mask);
      writer.WriteU64(since_generation);
      break;
    case RequestType::kUnsubscribe:
      writer.WriteU32(subscriber_id);
      break;
  }
  // Span-context trailer, v2 frames only (kBatch appends it inside
  // EncodeBatchFrame); v1 frames stay byte-frozen.
  if (CarriesSpanContext(type)) {
    EncodeSpanContext(writer, span_ctx);
  }
}

ByteBuffer JournalRequest::Encode() const {
  ByteWriter writer;
  EncodeTo(writer);
  return writer.TakeBuffer();
}

bool JournalRequest::DecodeInto(JournalRequest& out, ByteReader& reader, bool inside_batch) {
  uint8_t type = reader.ReadU8();
  if (!IsRequestType(type)) {
    return false;
  }
  out.type = static_cast<RequestType>(type);
  if (inside_batch && !IsBatchableType(out.type)) {
    return false;  // No nested batches, no reads inside a batch.
  }
  uint16_t source_bits = reader.ReadU16();
  out.source = static_cast<DiscoverySource>(source_bits);
  switch (out.type) {
    case RequestType::kStoreInterface:
      if (!InterfaceObservation::DecodeInto(out.interface_obs.emplace(), reader)) {
        return false;
      }
      break;
    case RequestType::kStoreGateway:
      if (!GatewayObservation::DecodeInto(out.gateway_obs.emplace(), reader)) {
        return false;
      }
      break;
    case RequestType::kStoreSubnet:
      if (!SubnetObservation::DecodeInto(out.subnet_obs.emplace(), reader)) {
        return false;
      }
      break;
    case RequestType::kGetInterfaces:
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets: {
      auto selector = Selector::Decode(reader);
      if (!selector.has_value()) {
        return false;
      }
      out.selector = std::move(*selector);
      break;
    }
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
      out.delete_id = reader.ReadU32();
      break;
    case RequestType::kGetStats:
      break;
    case RequestType::kBatch: {
      uint32_t count = reader.ReadU32();
      // Each item needs at least its obs-time plus a type+source header, so a
      // count that outruns the buffer is rejected before any allocation.
      if (!reader.ok() || count > reader.remaining() / 11) {
        return false;
      }
      out.batch.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        int64_t obs_us = reader.ReadI64();
        JournalRequest& item = out.batch.emplace_back();
        if (!DecodeInto(item, reader, /*inside_batch=*/true)) {
          return false;
        }
        if (obs_us != kNoObsTime) {
          item.obs_time = SimTime::FromMicros(obs_us);
        }
      }
      break;
    }
    case RequestType::kGetChangedSince: {
      uint8_t kind = reader.ReadU8();
      if (kind > static_cast<uint8_t>(RecordKind::kSubnet)) {
        return false;
      }
      out.changed_kind = static_cast<RecordKind>(kind);
      out.since_generation = reader.ReadU64();
      break;
    }
    case RequestType::kSubscribe:
    case RequestType::kPushUpdate:
      out.subscriber_id = reader.ReadU32();
      out.view_mask = reader.ReadU16();
      out.since_generation = reader.ReadU64();
      break;
    case RequestType::kUnsubscribe:
      out.subscriber_id = reader.ReadU32();
      break;
  }
  // Span-context trailer. Only consumed when the tag and length validate, so
  // a frame with unrelated trailing bytes decodes exactly as before (trailing
  // junk has always been ignored) with the zero context.
  out.span_ctx = telemetry::SpanContext{};
  if (!inside_batch && CarriesSpanContext(out.type) && reader.remaining() >= 2 + kSpanContextLen) {
    const ByteBuffer trailer = reader.PeekRemaining();
    if (trailer[0] == kSpanContextTag && trailer[1] == kSpanContextLen) {
      reader.Skip(2);
      out.span_ctx.trace_id = reader.ReadU64();
      out.span_ctx.span_id = reader.ReadU64();
      out.span_ctx.parent_span_id = reader.ReadU64();
    }
  }
  return reader.ok();
}

std::optional<JournalRequest> JournalRequest::Decode(const ByteBuffer& bytes) {
  ByteReader reader(bytes);
  JournalRequest req;
  if (!DecodeInto(req, reader, /*inside_batch=*/false)) {
    return std::nullopt;
  }
  return req;
}

ByteBuffer JournalResponse::Encode() const {
  ByteWriter writer;
  writer.Reserve(48 + interfaces.size() * 96 + gateways.size() * 72 + subnets.size() * 56 +
                 batch_results.size() * 6);
  writer.WriteU8(static_cast<uint8_t>(status));
  writer.WriteU32(record_id);
  writer.WriteU8(static_cast<uint8_t>((created ? 1 : 0) | (changed ? 2 : 0)));
  writer.WriteU32(static_cast<uint32_t>(interfaces.size()));
  for (const auto& rec : interfaces) {
    rec.Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(gateways.size()));
  for (const auto& rec : gateways) {
    rec.Encode(writer);
  }
  writer.WriteU32(static_cast<uint32_t>(subnets.size()));
  for (const auto& rec : subnets) {
    rec.Encode(writer);
  }
  writer.WriteU32(interface_count);
  writer.WriteU32(gateway_count);
  writer.WriteU32(subnet_count);
  writer.WriteU64(generation);
  writer.WriteU32(static_cast<uint32_t>(batch_results.size()));
  for (const auto& item : batch_results) {
    writer.WriteU8(static_cast<uint8_t>(item.status));
    writer.WriteU32(item.record_id);
    writer.WriteU8(static_cast<uint8_t>((item.created ? 1 : 0) | (item.changed ? 2 : 0)));
  }
  writer.WriteU32(static_cast<uint32_t>(tombstones.size()));
  for (RecordId id : tombstones) {
    writer.WriteU32(id);
  }
  return writer.TakeBuffer();
}

std::optional<JournalResponse> JournalResponse::Decode(const ByteBuffer& bytes) {
  ByteReader reader(bytes);
  JournalResponse resp;
  uint8_t status = reader.ReadU8();
  if (status > static_cast<uint8_t>(ResponseStatus::kFullResyncRequired)) {
    return std::nullopt;
  }
  resp.status = static_cast<ResponseStatus>(status);
  resp.record_id = reader.ReadU32();
  uint8_t flags = reader.ReadU8();
  resp.created = (flags & 1) != 0;
  resp.changed = (flags & 2) != 0;
  uint32_t n_interfaces = reader.ReadU32();
  // Every record encoding is ≥16 bytes, so counts that outrun the buffer are
  // rejected before reserving anything.
  if (!reader.ok() || n_interfaces > reader.remaining() / 16) {
    return std::nullopt;
  }
  resp.interfaces.reserve(n_interfaces);
  for (uint32_t i = 0; i < n_interfaces; ++i) {
    auto rec = InterfaceRecord::Decode(reader);
    if (!rec.has_value()) {
      return std::nullopt;
    }
    resp.interfaces.push_back(std::move(*rec));
  }
  uint32_t n_gateways = reader.ReadU32();
  if (!reader.ok() || n_gateways > reader.remaining() / 16) {
    return std::nullopt;
  }
  resp.gateways.reserve(n_gateways);
  for (uint32_t i = 0; i < n_gateways; ++i) {
    auto rec = GatewayRecord::Decode(reader);
    if (!rec.has_value()) {
      return std::nullopt;
    }
    resp.gateways.push_back(std::move(*rec));
  }
  uint32_t n_subnets = reader.ReadU32();
  if (!reader.ok() || n_subnets > reader.remaining() / 16) {
    return std::nullopt;
  }
  resp.subnets.reserve(n_subnets);
  for (uint32_t i = 0; i < n_subnets; ++i) {
    auto rec = SubnetRecord::Decode(reader);
    if (!rec.has_value()) {
      return std::nullopt;
    }
    resp.subnets.push_back(std::move(*rec));
  }
  resp.interface_count = reader.ReadU32();
  resp.gateway_count = reader.ReadU32();
  resp.subnet_count = reader.ReadU32();
  resp.generation = reader.ReadU64();
  uint32_t n_batch = reader.ReadU32();
  if (!reader.ok() || n_batch > reader.remaining() / 6) {
    return std::nullopt;
  }
  resp.batch_results.reserve(n_batch);
  for (uint32_t i = 0; i < n_batch; ++i) {
    BatchItemResult item;
    uint8_t item_status = reader.ReadU8();
    if (item_status > static_cast<uint8_t>(ResponseStatus::kFullResyncRequired)) {
      return std::nullopt;
    }
    item.status = static_cast<ResponseStatus>(item_status);
    item.record_id = reader.ReadU32();
    uint8_t item_flags = reader.ReadU8();
    item.created = (item_flags & 1) != 0;
    item.changed = (item_flags & 2) != 0;
    resp.batch_results.push_back(item);
  }
  // Tombstone ids (trailing: a frame from an encoder that predates them
  // simply decodes to an empty list).
  if (reader.remaining() >= 4) {
    uint32_t n_tombstones = reader.ReadU32();
    if (!reader.ok() || n_tombstones > reader.remaining() / 4) {
      return std::nullopt;
    }
    resp.tombstones.reserve(n_tombstones);
    for (uint32_t i = 0; i < n_tombstones; ++i) {
      resp.tombstones.push_back(reader.ReadU32());
    }
  }
  if (!reader.ok()) {
    return std::nullopt;
  }
  return resp;
}

}  // namespace fremont
