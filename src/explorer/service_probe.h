// Service Probe Explorer Module (the paper's Future Work, implemented).
//
// "Network service information can also be determined by attempting to
//  connect to a service" — and it is the *right* way to learn it, because
// the DNS WKS records that were supposed to carry this data are "notoriously
// bad" (the paper's RFC 1123 discussion). The module probes the well-known
// UDP service ports of interfaces already in the Journal and classifies each
// as:
//
//   * present — the service answered (an echo of our payload, a DNS
//     response, a RIP response);
//   * absent  — the host answered ICMP Port Unreachable: alive, no service;
//   * unknown — silence (host down, or a service like RIP that ignores
//     strangers).
//
// Confirmed services are recorded on the interface record's service bitmask.

#ifndef SRC_EXPLORER_SERVICE_PROBE_H_
#define SRC_EXPLORER_SERVICE_PROBE_H_

#include <map>
#include <vector>

#include "src/explorer/explorer.h"

namespace fremont {

struct ServiceProbeParams {
  // Interfaces to probe. Empty = every interface in the Journal that has
  // been verified on the wire (DNS-only ghosts are skipped).
  std::vector<Ipv4Address> targets;
  // Which services to try.
  std::vector<KnownService> services = {KnownService::kUdpEcho, KnownService::kDns,
                                        KnownService::kRip};
  Duration reply_timeout = Duration::Seconds(3);
  Duration spacing = Duration::Millis(500);
};

class ServiceProbe : public ExplorerModule {
 public:
  ServiceProbe(Vantage vantage, JournalClient* journal, ServiceProbeParams params = {});

  enum class Verdict { kPresent, kAbsent, kUnknown };
  // (interface, service) → verdict for everything probed.
  const std::map<std::pair<uint32_t, uint16_t>, Verdict>& verdicts() const { return verdicts_; }

 protected:
  void StartImpl() override;
  // Settles the report and counts the probes that timed out. Each target's
  // services were written as it finished.
  void Finish() override;

 private:
  // Launches the probe for targets_[target_index] × services[service_index];
  // chains to the next pair from its completion events. Findings batch in
  // the module's writer as each target completes, stamped with the probe
  // time.
  void ProbeNext(size_t target_index, size_t service_index);

  ServiceProbeParams params_;
  std::vector<Ipv4Address> targets_;
  int64_t timeouts_ = 0;
  uint16_t cur_found_mask_ = 0;  // Services confirmed on the current target.
  std::map<std::pair<uint32_t, uint16_t>, Verdict> verdicts_;
  int services_found_ = 0;
  uint16_t next_query_id_ = 0x5350;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_SERVICE_PROBE_H_
