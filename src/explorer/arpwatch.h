// ARPwatch Explorer Module (passive).
//
// Watches every ARP exchange on the vantage host's attached segment via a
// promiscuous tap (the SunOS NIT in the original) and records Ethernet/IP
// address pairs in the Journal. Generates no traffic; "can be left to run
// for long periods of time"; discovers only hosts that participate in ARP
// exchanges — hence the time-dependent coverage of Table 5 (61% in 30
// minutes, 89% after 24 hours on the paper's subnet).

#ifndef SRC_EXPLORER_ARPWATCH_H_
#define SRC_EXPLORER_ARPWATCH_H_

#include <map>
#include <utility>

#include "src/explorer/explorer.h"
#include "src/net/arp.h"

namespace fremont {

struct ArpWatchParams {
  // How long a managed run keeps the tap attached before reporting.
  Duration watch = Duration::Hours(1);
  // Re-writing an unchanged pair to the Journal is throttled to this period
  // (the record's last_verified still advances on each write).
  Duration write_throttle = Duration::Minutes(10);
};

class ArpWatch : public ExplorerModule {
 public:
  ArpWatch(Vantage vantage, JournalClient* journal, ArpWatchParams params = {});

  // Attaches the tap. Requires "system privileges" in the original; here it
  // requires the vantage host to have an attached segment. Callers that want
  // an open-ended capture (no `watch` deadline) may drive these directly
  // instead of Start()/Run(). Bindings queue in the module's writer, each
  // stamped with the frame time it was observed at; StopCapture() flushes,
  // so report() totals are final once the tap is detached.
  bool StartCapture();
  void StopCapture();

  // Distinct (MAC, IP) pairs seen since StartCapture.
  int unique_pairs_seen() const { return static_cast<int>(seen_.size()); }
  // Distinct IP addresses seen in one subnet (the Table 5 accounting unit).
  int unique_ips_in(const Subnet& subnet) const;
  // Live snapshot of the watch so far (final once the tap is detached).
  ExplorerReport report() const;

 protected:
  // Managed lifecycle: attach the tap, report `watch` later.
  void StartImpl() override;

 private:
  void OnFrame(const EthernetFrame& frame, SimTime now);
  void Observe(MacAddress mac, Ipv4Address ip, SimTime now);

  ArpWatchParams params_;
  SimTime capture_started_;
  std::map<std::pair<uint64_t, uint32_t>, SimTime> seen_;  // (mac, ip) → last write.
};

}  // namespace fremont

#endif  // SRC_EXPLORER_ARPWATCH_H_
