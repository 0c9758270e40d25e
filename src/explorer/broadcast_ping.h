// Broadcast Ping Explorer Module (active, ICMP echo to directed broadcast).
//
// One Echo Request to the subnet's broadcast address elicits replies from
// every listening host at once — completing in seconds where a sequential
// sweep takes minutes. The cost is reliability: "closely spaced replies can
// cause many collisions", so coverage is lower on dense subnets (75% in the
// paper's Table 5). The module keeps the TTL minimal (ramped dynamically,
// like traceroute) so a misbehaving stack cannot amplify it into a
// network-wide broadcast storm.

#ifndef SRC_EXPLORER_BROADCAST_PING_H_
#define SRC_EXPLORER_BROADCAST_PING_H_

#include <set>
#include <vector>

#include "src/explorer/explorer.h"

namespace fremont {

struct BroadcastPingParams {
  // Target subnet; default (empty) is the vantage host's attached subnet.
  std::optional<Subnet> target;
  // Number of broadcast pings. One burst is the paper's configuration (the
  // module "completes in 20 seconds"); extra pings re-catch collision
  // victims at the cost of a second reply storm.
  int pings = 1;
  Duration spacing = Duration::Seconds(10);
  // How long to collect replies after the last ping.
  Duration collect = Duration::Seconds(10);
  // Cap on the dynamic TTL ramp towards remote subnets.
  int max_ttl = 8;
};

class BroadcastPing : public ExplorerModule {
 public:
  BroadcastPing(Vantage vantage, JournalClient* journal, BroadcastPingParams params = {});

  const std::vector<Ipv4Address>& responders() const { return responders_; }

 protected:
  void StartImpl() override;
  // Records every responder.
  void Finish() override;

 private:
  BroadcastPingParams params_;
  std::set<uint32_t> replied_;
  std::vector<Ipv4Address> responders_;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_BROADCAST_PING_H_
