// RIPwatch Explorer Module (passive).
//
// Monitors RIP advertisements on the attached subnet (promiscuous tap, like
// ARPwatch) and builds the campus subnet census — the one module that found
// all 111 connected subnets in the paper's Table 6, because "nearly all
// subnets [are] advertised".
//
// It also implements the paper's untrustworthy-source detection: "many badly
// configured hosts promiscuously rebroadcast all learned routing information
// without regard to the subnet from which that information was learned".
// Two signatures flag a source as promiscuous:
//   1. It violates split horizon by advertising a route to the very subnet
//      the advertisement was heard on, or
//   2. it advertises no metric-1 (directly connected) route at all — a pure
//      echo of other routers' tables.

#ifndef SRC_EXPLORER_RIPWATCH_H_
#define SRC_EXPLORER_RIPWATCH_H_

#include <map>
#include <set>

#include "src/explorer/explorer.h"
#include "src/net/rip.h"

namespace fremont {

struct RipWatchParams {
  // How long a managed run keeps the tap attached before writing findings.
  // The paper used ~2 minutes: four RIP periods.
  Duration watch = Duration::Minutes(2);
};

class RipWatch : public ExplorerModule {
 public:
  RipWatch(Host* vantage, JournalClient* journal, RipWatchParams params = {});

  // Open-ended capture controls for callers that manage the tap themselves
  // (no `watch` deadline); Start()/Run() drive these internally.
  bool StartCapture();
  void StopCapture();

  int subnets_seen() const;
  std::vector<Ipv4Address> promiscuous_sources() const;

 protected:
  // Managed lifecycle: attach the tap, write and report `watch` later.
  void StartImpl() override;
  void CancelImpl() override;

 private:
  struct SourceState {
    MacAddress mac;
    std::map<uint32_t, uint32_t> routes;  // Advertised address → best metric.
    bool split_horizon_violation = false;
  };

  void OnFrame(const EthernetFrame& frame, SimTime now);
  Subnet InferSubnet(Ipv4Address advertised) const;
  // Writes the accumulated findings and settles the report.
  void WriteFindings();

  RipWatchParams params_;
  std::map<uint32_t, SourceState> sources_;  // Keyed by source IP.
};

}  // namespace fremont

#endif  // SRC_EXPLORER_RIPWATCH_H_
