// EtherHostProbe Explorer Module (active, ARP-based).
//
// Sends a UDP packet to the Echo port of every address in a range on the
// attached subnet. Sending forces the local IP stack to ARP for each target;
// the module then reads the resulting bindings out of the *local host's* ARP
// table — which is why, unlike ARPwatch, it needs no special privileges.
// Rate-limited to four packets per second per the paper.
//
// Proxy-ARP handling: a device answering ARP for a whole block of local
// addresses would flood the table with one MAC mapped to many IPs; the
// module recognizes that device-type signature and excludes those entries.

#ifndef SRC_EXPLORER_ETHERHOSTPROBE_H_
#define SRC_EXPLORER_ETHERHOSTPROBE_H_

#include <vector>

#include "src/explorer/explorer.h"

namespace fremont {

struct EtherHostProbeParams {
  // Address range to probe; when both are zero the module probes the host
  // range of the vantage host's attached subnet.
  Ipv4Address first;
  Ipv4Address last;
  double packets_per_second = 4.0;
  // Wait after the final probe for stragglers' ARP replies.
  Duration settle = Duration::Seconds(5);
  // One MAC claiming this many or more IPs is treated as a proxy-ARP device.
  int proxy_arp_threshold = 4;
};

class EtherHostProbe : public ExplorerModule {
 public:
  EtherHostProbe(Vantage vantage, JournalClient* journal, EtherHostProbeParams params = {});

  int proxy_suspects() const { return proxy_suspects_; }

 protected:
  void StartImpl() override;
  // Harvests the vantage's ARP table: the bindings the probes made the
  // local stack resolve.
  void Finish() override;

 private:
  EtherHostProbeParams params_;
  Ipv4Address first_;
  Ipv4Address last_;
  int proxy_suspects_ = 0;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_ETHERHOSTPROBE_H_
