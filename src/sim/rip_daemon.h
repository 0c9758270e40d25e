// RIP version 1 daemon ("routed").
//
// Two personalities:
//   * On a Router: the honest daemon. Advertises the routing table on every
//     interface every 30 seconds with split horizon, learns routes from
//     neighbours (distance-vector), and expires unrefreshed routes — giving
//     the simulation the paper's dynamic behaviours: redundant lower-priority
//     paths appear in advertisements only when the primary is down.
//   * On a plain Host with promiscuous_rebroadcast: the misconfigured host
//     the paper complains about, which "promiscuously rebroadcasts all
//     learned routing information without regard to the subnet from which
//     that information was learned" — the fault RIPwatch must flag.

#ifndef SRC_SIM_RIP_DAEMON_H_
#define SRC_SIM_RIP_DAEMON_H_

#include <map>
#include <memory>
#include <vector>

#include "src/net/rip.h"
#include "src/sim/host.h"
#include "src/sim/router.h"
#include "src/util/bytes.h"

namespace fremont {

struct RipDaemonConfig {
  Duration advertise_interval = Duration::Seconds(30);
  Duration route_max_age = Duration::Seconds(180);
  bool respond_to_requests = true;
  // Host-fault mode: rebroadcast everything learned, +1 metric, no split
  // horizon, no connected routes of our own.
  bool promiscuous_rebroadcast = false;
};

class RipDaemon {
 public:
  // `router` may be null for host mode (promiscuous or listen-only).
  RipDaemon(Host* host, Router* router, RipDaemonConfig config);
  ~RipDaemon();
  RipDaemon(const RipDaemon&) = delete;
  RipDaemon& operator=(const RipDaemon&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

  uint64_t advertisements_sent() const { return advertisements_sent_; }

 private:
  void OnRipPacket(const Ipv4Packet& packet, const UdpDatagram& datagram);
  void Advertise();
  void AdvertiseOn(Interface* iface);
  // Hands `emit` each encoded UDP datagram AdvertiseOn would put on
  // `iface`'s wire now: one per RIP packet of at most 25 routes.
  template <typename Emit>
  void EncodeAdvertisement(const Interface* iface, Emit emit) const;
  // True when `datagrams` is exactly what EncodeAdvertisement emits now. The
  // FREMONT_AUDIT check on every cache hit; it compares each datagram as it
  // is encoded instead of building a second copy of the advertisement.
  bool IsCurrentAdvertisement(const Interface* iface,
                              const std::vector<ByteBuffer>& datagrams) const;
  // Stamp of the state an advertisement is built from: the routing table's
  // version, or in promiscuous mode the heard_routes_ version.
  uint64_t AdvertisedVersion() const;
  // RIPv1 mask inference for a learned address, relative to the receiving
  // interface (no masks on the wire).
  Subnet InferSubnet(Ipv4Address advertised, Interface* iface) const;

  void Tick();
  void ScheduleTick(Duration delay);

  Host* host_;
  Router* router_;
  RipDaemonConfig config_;
  bool running_ = false;
  uint64_t generation_ = 0;  // Invalidates scheduled ticks after Stop().
  uint64_t advertisements_sent_ = 0;
  // Liveness token for scheduled tick events: they hold a weak_ptr, so a
  // destroyed (or stopped) daemon turns pending events into no-ops instead
  // of dangling-pointer calls.
  std::shared_ptr<RipDaemon*> liveness_;

  // The last datagram received, decoded in place: every backbone
  // advertisement reaches dozens of routers, and reusing one packet's entry
  // storage spares each of them a fresh vector.
  RipPacket received_;

  // Promiscuous mode: everything heard, keyed by address, value = metric.
  std::map<uint32_t, uint32_t> heard_routes_;
  uint64_t heard_version_ = 0;  // Bumped on every heard_routes_ change.

  // Each interface's last encoded advertisement and the stamp it was built
  // at; re-encoded only when AdvertisedVersion() moves.
  struct CachedAdvertisement {
    const Interface* iface = nullptr;
    uint64_t version = 0;
    std::vector<ByteBuffer> datagrams;
  };
  std::vector<CachedAdvertisement> advertisements_;
};

}  // namespace fremont

#endif  // SRC_SIM_RIP_DAEMON_H_
