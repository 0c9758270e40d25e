#include "perfbench/src/meter.h"

#include <chrono>

#include "perfbench/src/span_log.h"

namespace perfbench {

using fremont::ByteBuffer;
using fremont::JournalRequest;
using fremont::RequestType;
using fremont::ResponseStatus;
using fremont::Selector;

namespace {

// Span name for a request's operation class (see JournalMeter).
const char* JournalOpSpanName(const JournalRequest& request) {
  switch (request.type) {
    case RequestType::kStoreInterface:
    case RequestType::kStoreGateway:
    case RequestType::kStoreSubnet:
    case RequestType::kDeleteInterface:
    case RequestType::kDeleteGateway:
    case RequestType::kDeleteSubnet:
    case RequestType::kBatch:
      return "journal.batch";
    case RequestType::kGetChangedSince:
      return "journal.delta";
    case RequestType::kGetInterfaces:
      switch (request.selector.kind) {
        case Selector::Kind::kById:
        case Selector::Kind::kByIp:
        case Selector::Kind::kByMac:
        case Selector::Kind::kByName:
          return "journal.point";
        case Selector::Kind::kAll:
        case Selector::Kind::kInRange:
        case Selector::Kind::kModifiedSince:
          return "journal.full";
      }
      return "journal.full";
    case RequestType::kGetGateways:
    case RequestType::kGetSubnets:
      return "journal.full";
    case RequestType::kGetStats:
    case RequestType::kSubscribe:
    case RequestType::kUnsubscribe:
    case RequestType::kPushUpdate:
      return "journal.other";
  }
  return "journal.other";
}

}  // namespace

bool IsError(const ByteBuffer& request, const ByteBuffer& response) {
  // A request's type and a response's status are their first bytes on the
  // wire. kNotModified and kFullResyncRequired are answers; so is kNotFound
  // to a Get, which is how the server says the selection is empty.
  if (request.empty() || response.empty()) {
    return true;
  }
  const auto status = static_cast<ResponseStatus>(response[0]);
  const auto type = static_cast<RequestType>(request[0]);
  const bool is_get = type == RequestType::kGetInterfaces || type == RequestType::kGetGateways ||
                      type == RequestType::kGetSubnets;
  return !(status == ResponseStatus::kOk || status == ResponseStatus::kNotModified ||
           status == ResponseStatus::kFullResyncRequired ||
           (status == ResponseStatus::kNotFound && is_get));
}

void TallyMeter(const JournalMeter& meter, Tally& tally) {
  tally.Add("journal.requests", static_cast<double>(meter.requests()));
  tally.Add("journal.request_bytes", static_cast<double>(meter.request_bytes()));
  tally.Add("journal.response_bytes", static_cast<double>(meter.response_bytes()));
  tally.Add("journal.batch_requests", static_cast<double>(meter.batch_requests()));
  tally.Add("journal.batch_items", static_cast<double>(meter.batch_items()));
  tally.Add("ops.attempted", static_cast<double>(meter.requests()));
  tally.Add("ops.failed", static_cast<double>(meter.errors()));
}

fremont::JournalClient::Transport JournalMeter::Wrap(fremont::JournalServer* server) {
  return [this, server](const ByteBuffer& request) { return Handle(server, request); };
}

ByteBuffer JournalMeter::Handle(fremont::JournalServer* server, const ByteBuffer& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ByteBuffer response;
  if (SpanLog::Global().enabled()) {
    // Classifying needs the decoded request; decode before the span opens so
    // the span holds server time only.
    const std::optional<JournalRequest> decoded = JournalRequest::Decode(request);
    const char* name = decoded.has_value() ? JournalOpSpanName(*decoded) : "journal.other";
    if (decoded.has_value() && decoded->type == RequestType::kBatch) {
      batch_requests_.fetch_add(1, std::memory_order_relaxed);
      batch_items_.fetch_add(decoded->batch.size(), std::memory_order_relaxed);
    }
    const auto start = std::chrono::steady_clock::now();
    {
      const ScopedSpan span(name);
      response = server->HandleRequest(request);
    }
    server_ns_.fetch_add(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                   std::chrono::steady_clock::now() - start)
                                                   .count()),
                         std::memory_order_relaxed);
    request_bytes_.fetch_add(request.size(), std::memory_order_relaxed);
    response_bytes_.fetch_add(response.size(), std::memory_order_relaxed);
  } else {
    response = server->HandleRequest(request);
  }
  if (IsError(request, response)) {
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

}  // namespace perfbench
