// RIP directed-probe Explorer Module (the paper's Future Work, implemented).
//
// "Beyond monitoring RIP advertisements, we plan to use directed probes to
//  discover routing information, via the RIP Request and RIP Poll queries.
//  The major advantage of doing so is that these requests and replies can be
//  routed through a network, thus providing access to routing information on
//  subnets other than just the local subnet."
//
// The module unicasts a RIP Request (or the non-standard Poll that routed
// implements) to each target gateway — typically the RIP sources and gateway
// interfaces already in the Journal — and reads back the router's entire
// table. A router's metric-1 entries are its directly connected subnets, so
// each reply yields a gateway-subnet topology fragment that passive RIPwatch
// can never see for remote routers. Per the paper's caveat, "not all routers
// use RIP or respond properly" — silence is tolerated and reported.

#ifndef SRC_EXPLORER_RIP_PROBE_H_
#define SRC_EXPLORER_RIP_PROBE_H_

#include <map>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/net/rip.h"

namespace fremont {

struct RipProbeParams {
  // Gateways to query. Empty = every RIP source and every gateway interface
  // already recorded in the Journal.
  std::vector<Ipv4Address> targets;
  Duration reply_timeout = Duration::Seconds(5);
  // Pacing between probes (ICMP-style politeness applies to RIP too).
  Duration spacing = Duration::Seconds(2);
  // Use the non-standard RIP Poll command (answered by routed; some routers
  // only answer Request).
  bool use_poll = false;
  // Prefix length assumed for subnet classification inside our own classful
  // network (RIPv1 replies carry no masks).
  int assumed_prefix = 24;
};

class RipProbe : public ExplorerModule {
 public:
  RipProbe(Vantage vantage, JournalClient* journal, RipProbeParams params = {});

  // Target address → full routing table it reported.
  const std::map<uint32_t, std::vector<RipEntry>>& tables() const { return tables_; }
  // Targets that never answered (no RIP, filtered, or down).
  const std::vector<Ipv4Address>& silent_targets() const { return silent_; }
  int subnets_discovered() const { return subnets_discovered_; }

 protected:
  void StartImpl() override;
  // Writes each answering router as a RIP source and a gateway connected to
  // its metric-1 subnets.
  void Finish() override;

 private:
  Subnet InferSubnet(Ipv4Address advertised) const;
  void ProbeNext(size_t index);

  RipProbeParams params_;
  std::vector<Ipv4Address> targets_;
  std::map<uint32_t, Ipv4Address> responder_for_target_;
  std::map<uint32_t, std::vector<RipEntry>> tables_;
  std::vector<Ipv4Address> silent_;
  int subnets_discovered_ = 0;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_RIP_PROBE_H_
