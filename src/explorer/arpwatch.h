// ARPwatch Explorer Module (passive).
//
// Watches every ARP exchange on the vantage host's attached segment via a
// promiscuous tap (the SunOS NIT in the original) and records Ethernet/IP
// address pairs in the Journal. Generates no traffic; "can be left to run
// for long periods of time"; discovers only hosts that participate in ARP
// exchanges — hence the time-dependent coverage of Table 5 (61% in 30
// minutes, 89% after 24 hours on the paper's subnet).
//
// It runs through the same lifecycle as every module. A managed run taps
// for `watch` and completes; an open-ended watcher Start()s it with a
// `watch` longer than its window, samples the counts below mid-run, and
// Cancel()s it, taking the final report from the completion callback.
// Bindings queue in the module's writer, each stamped with the frame time
// it was observed at, and reach the Journal when the run completes (or
// earlier, when a read on the same client flushes the writer).

#ifndef SRC_EXPLORER_ARPWATCH_H_
#define SRC_EXPLORER_ARPWATCH_H_

#include <map>
#include <utility>

#include "src/explorer/explorer.h"
#include "src/net/arp.h"

namespace fremont {

struct ArpWatchParams {
  // How long a run keeps the tap attached before it completes (unless a
  // Cancel() ends it sooner).
  Duration watch = Duration::Hours(1);
  // Re-writing an unchanged pair to the Journal is throttled to this period
  // (the record's last_verified still advances on each write).
  Duration write_throttle = Duration::Minutes(10);
};

class ArpWatch : public ExplorerModule {
 public:
  ArpWatch(Vantage vantage, JournalClient* journal, ArpWatchParams params = {});

  // Distinct (MAC, IP) pairs seen since Start().
  int unique_pairs_seen() const { return static_cast<int>(seen_.size()); }
  // Distinct IP addresses seen in one subnet (the Table 5 accounting unit).
  int unique_ips_in(const Subnet& subnet) const;

 protected:
  // Attaches the tap ("system privileges" in the original; here, a vantage
  // with an attached segment) and completes `watch` later.
  void StartImpl() override;

 private:
  void OnFrame(const EthernetFrame& frame, SimTime now);
  void Observe(MacAddress mac, Ipv4Address ip, SimTime now);

  ArpWatchParams params_;
  std::map<std::pair<uint64_t, uint32_t>, SimTime> seen_;  // (mac, ip) → last write.
};

}  // namespace fremont

#endif  // SRC_EXPLORER_ARPWATCH_H_
