// JournalMeter: a JournalClient::Transport wrapper around
// JournalServer::HandleRequest.
//
// Always counts requests and responses with an error status (kNotModified
// and kFullResyncRequired are answers, not errors). While spans are being
// recorded it also times each request as a "journal.<class>" span — batch
// (stores, deletes and kBatch), delta (kGetChangedSince), point (a Get by
// id, address, MAC or name), full (any other Get) or other — and tallies
// request/response bytes and batch items. Safe to share across the sharded
// runtime's worker threads.

#ifndef PERFBENCH_SRC_METER_H_
#define PERFBENCH_SRC_METER_H_

#include <atomic>
#include <cstdint>

#include "perfbench/src/stats.h"
#include "src/journal/client.h"
#include "src/journal/server.h"

namespace perfbench {

class JournalMeter {
 public:
  JournalMeter() = default;
  JournalMeter(const JournalMeter&) = delete;
  JournalMeter& operator=(const JournalMeter&) = delete;

  // A transport into `server` that reports to this meter. Both must outlive
  // every client built on it.
  fremont::JournalClient::Transport Wrap(fremont::JournalServer* server);

  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  uint64_t request_bytes() const { return request_bytes_.load(std::memory_order_relaxed); }
  uint64_t response_bytes() const { return response_bytes_.load(std::memory_order_relaxed); }
  uint64_t batch_requests() const { return batch_requests_.load(std::memory_order_relaxed); }
  uint64_t batch_items() const { return batch_items_.load(std::memory_order_relaxed); }
  // Wall nanoseconds inside HandleRequest (recorded only with spans on).
  uint64_t server_ns() const { return server_ns_.load(std::memory_order_relaxed); }

 private:
  fremont::ByteBuffer Handle(fremont::JournalServer* server, const fremont::ByteBuffer& request);

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> request_bytes_{0};
  std::atomic<uint64_t> response_bytes_{0};
  std::atomic<uint64_t> batch_requests_{0};
  std::atomic<uint64_t> batch_items_{0};
  std::atomic<uint64_t> server_ns_{0};
};

// Adds the meter's counts to `tally`: journal.* traffic, plus every request
// to ops.attempted and every error response to ops.failed.
void TallyMeter(const JournalMeter& meter, Tally& tally);

// True when `response` reports a failed `request`: kMalformedRequest, or
// kNotFound to anything but a Get (an empty selection is an answer).
bool IsError(const fremont::ByteBuffer& request, const fremont::ByteBuffer& response);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METER_H_
