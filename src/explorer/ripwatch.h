// RIPwatch Explorer Module (passive).
//
// Monitors RIP advertisements on the attached subnet (promiscuous tap, like
// ARPwatch) and builds the campus subnet census — the one module that found
// all 111 connected subnets in the paper's Table 6, because "nearly all
// subnets [are] advertised". A run taps for `watch` and writes the census
// when it ends, on time or at a Cancel().
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
  // How long a run keeps the tap attached before it writes its findings and
  // completes (unless a Cancel() ends it sooner). The paper used ~2 minutes:
  // four RIP periods.
  Duration watch = Duration::Minutes(2);
};

class RipWatch : public ExplorerModule {
 public:
  RipWatch(Vantage vantage, JournalClient* journal, RipWatchParams params = {});

  int subnets_seen() const;
  std::vector<Ipv4Address> promiscuous_sources() const;

 protected:
  // Attaches the tap and completes `watch` later.
  void StartImpl() override;
  // Writes the census: the attached subnet, every RIP source, and the routes
  // of the trustworthy ones.
  void Finish() override;

 private:
  struct SourceState {
    MacAddress mac;
    std::map<uint32_t, uint32_t> routes;  // Advertised address → best metric.
    bool split_horizon_violation = false;
  };

  void OnFrame(const EthernetFrame& frame, SimTime now);
  // The subnet an advertised address names, seen from `iface`: the vantage's
  // own mask inside its classful network, the natural mask outside it.
  static Subnet InferSubnet(const VantageInterface& iface, Ipv4Address advertised);

  RipWatchParams params_;
  std::map<uint32_t, SourceState> sources_;  // Keyed by source IP.
};

}  // namespace fremont

#endif  // SRC_EXPLORER_RIPWATCH_H_
