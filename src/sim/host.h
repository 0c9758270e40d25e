// A simulated end host: Ethernet + ARP + IPv4 + ICMP + UDP endpoint.
//
// Hosts implement the behaviours Fremont's Explorer Modules probe for —
// answering ARP requests, ICMP echo (including to broadcast addresses),
// ICMP address-mask requests, the UDP echo service — and the *mis*behaviours
// the analysis programs must catch: answering mask requests with a wrong
// mask, squatting on another host's IP address, not responding at all.
//
// Explorer Modules run "on" a host: they send through its stack, read its
// ARP cache, and register listeners for the ICMP/UDP replies they await.

#ifndef SRC_SIM_HOST_H_
#define SRC_SIM_HOST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/arp.h"
#include "src/net/icmp.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/sim/arp_cache.h"
#include "src/sim/event_queue.h"
#include "src/sim/segment.h"
#include "src/util/rng.h"

namespace fremont {

struct HostConfig {
  // Protocol behaviours (all defaults are the common correct configuration).
  bool responds_to_echo = true;
  bool responds_to_broadcast_ping = true;
  bool responds_to_mask_request = true;
  bool udp_echo_enabled = true;
  bool sends_port_unreachable = true;
  // "Host zero": accept packets addressed to the attached subnet's network
  // address as if addressed to this host (the behaviour Fremont's traceroute
  // exploits).
  bool accepts_host_zero = true;

  // Faults / misconfigurations:
  // If set, mask replies advertise this mask instead of the interface's real
  // one (the "conflicting subnet masks" problem of Table 8).
  std::optional<SubnetMask> wrong_advertised_mask;
  // The paper: "Some hosts send their Unreachable message back to the source
  // using the TTL field from the received packet, causing the packet not to
  // arrive back at the source until the TTL of the original packet is large
  // enough for an entire round trip." Traceroute tolerates this — the
  // terminal reply simply resolves at a higher probe TTL.
  bool reflects_ttl_in_replies = false;

  // ARP parameters.
  Duration arp_timeout = Duration::Minutes(20);
  Duration arp_retry_interval = Duration::Seconds(1);
  int arp_max_retries = 3;
};

class Host : public FrameSink {
 public:
  Host(std::string name, HostConfig config, EventQueue* events, Rng* rng);
  ~Host() override = default;

  const std::string& name() const { return name_; }
  HostConfig& config() { return config_; }
  const HostConfig& config_ref() const { return config_; }
  EventQueue* events() { return events_; }
  Rng* rng() { return rng_; }
  SimTime Now() const { return events_->Now(); }

  // Shard this host executes on (Simulator::CreateHost stamps it; 0 in
  // single-queue mode). New interfaces inherit it as their owner_shard.
  void set_shard(int shard) { shard_ = shard; }
  int shard() const { return shard_; }

  // --- Topology wiring -----------------------------------------------------

  // Creates an interface and attaches it to `segment`.
  Interface* AttachTo(Segment* segment, Ipv4Address ip, SubnetMask mask, MacAddress mac);
  const std::vector<std::unique_ptr<Interface>>& interfaces() const { return interfaces_; }
  Interface* primary_interface() const {
    return interfaces_.empty() ? nullptr : interfaces_.front().get();
  }

  // Whole-machine power switch. A down host answers nothing; its interfaces
  // stop receiving.
  void SetUp(bool up);
  bool IsUp() const { return up_; }

  // Default route for a plain (non-forwarding) host.
  void SetDefaultGateway(Ipv4Address gateway) { default_gateway_ = gateway; }

  // --- Sending (used by services, traffic, and Explorer Modules) ------------

  // Sends an IP packet, performing ARP resolution for the next hop. Returns
  // false if no route exists.
  bool SendIpPacket(Ipv4Packet packet);

  bool SendUdp(Ipv4Address dst, uint16_t src_port, uint16_t dst_port, ByteBuffer payload,
               uint8_t ttl = 64);
  bool SendIcmp(Ipv4Address dst, const IcmpMessage& message, uint8_t ttl = 64);

  // --- Receiving hooks for Explorer Modules ---------------------------------

  // All ICMP messages delivered to this host (after default processing) are
  // passed to every registered listener. Multiple listeners may be active at
  // once — the Discovery Manager overlaps Explorer Modules, so several can
  // await ICMP replies on the same vantage host simultaneously; each filters
  // by its own identifier. A listener may remove itself (or register others)
  // from inside its callback.
  using IcmpListener = std::function<void(const Ipv4Packet&, const IcmpMessage&)>;
  int AddIcmpListener(IcmpListener listener);
  void RemoveIcmpListener(int token);
  // Legacy single-slot interface: manages one dedicated listener slot on top
  // of Add/Remove (Set replaces the slot, Clear empties it). Listeners added
  // via AddIcmpListener are unaffected.
  void SetIcmpListener(IcmpListener listener);
  void ClearIcmpListener();

  // Binds a UDP port. The handler receives the enclosing IP packet too (for
  // source addresses). Returns false if the port is already bound.
  using UdpHandler = std::function<void(const Ipv4Packet&, const UdpDatagram&)>;
  bool BindUdp(uint16_t port, UdpHandler handler);
  void UnbindUdp(uint16_t port);

  // The local ARP table (what `arp -a` shows); EtherHostProbe reads this.
  ArpCache& arp_cache() { return arp_cache_; }
  const ArpCache& arp_cache() const { return arp_cache_; }

  // True if `ip` is assigned to one of this host's interfaces.
  bool OwnsAddress(Ipv4Address ip) const;

  // True if `dst` is the limited broadcast or the directed broadcast of any
  // attached subnet. Distinguishes "broadcast delivered to us" from
  // "addressed to us" (which includes host-zero acceptance).
  bool IsBroadcastDestination(Ipv4Address dst) const;

  // Packets handed to the stack for transmission (includes ARP requests);
  // benches use the delta to measure a module's network load.
  uint64_t packets_sent() const { return packets_sent_; }

  // --- FrameSink -------------------------------------------------------------
  void OnFrame(Interface* iface, const FrameView& view) override;

 protected:
  // Routing decision: picks the egress interface and next-hop IP for `dst`.
  // Plain hosts know only their attached subnets plus the default gateway;
  // Router overrides this with a routing table.
  struct NextHop {
    Interface* iface = nullptr;
    Ipv4Address gateway;  // Zero when the destination is on-link.
  };
  virtual std::optional<NextHop> Route(Ipv4Address dst);

  // Router overrides to forward packets not addressed to this machine.
  virtual void ForwardPacket(Interface* in_iface, const Ipv4Packet& packet) {
    (void)in_iface;
    (void)packet;  // Plain hosts do not forward.
  }

  // True if `dst` addresses this machine via `iface` (own IP, broadcasts,
  // host-zero). Router extends the set.
  virtual bool IsLocalDestination(Interface* iface, Ipv4Address dst) const;

  // Called for every ARP packet seen addressed to us (Router hooks proxy ARP
  // through this).
  virtual void HandleArp(Interface* iface, const ArpPacket& arp);

  // Hands a locally destined packet (view.ipv4()) to its protocol handler.
  void DeliverLocal(Interface* iface, const FrameView& view);
  virtual void HandleIcmp(Interface* iface, const Ipv4Packet& packet, const IcmpMessage& message);
  void HandleUdp(Interface* iface, const Ipv4Packet& packet, const UdpDatagram& datagram);

  // Emits an ICMP error carrying the offending packet's header + 8 bytes.
  // `reply_ttl` lets Router model the reflect-TTL firmware bug.
  void SendIcmpError(const Ipv4Packet& offending, const IcmpMessage& error, uint8_t reply_ttl);

  // Transmits `packet` out of `iface` towards link-layer `next_hop_ip`,
  // resolving it with ARP (queueing the packet while resolution runs).
  void TransmitViaArp(Interface* iface, Ipv4Address next_hop_ip, Ipv4Packet packet);

  // Encapsulates and puts a frame on the wire.
  void TransmitFrame(Interface* iface, MacAddress dst, EtherType ethertype, ByteBuffer payload);

  Interface* InterfaceForSubnet(Ipv4Address dst) const;

  std::string name_;
  HostConfig config_;
  EventQueue* events_;
  Rng* rng_;
  int shard_ = 0;
  bool up_ = true;
  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::optional<Ipv4Address> default_gateway_;
  ArpCache arp_cache_;
  uint16_t next_ip_id_ = 1;
  uint64_t packets_sent_ = 0;

  // Packets parked awaiting ARP resolution, keyed by next-hop IP.
  struct PendingArp {
    Interface* iface;
    std::vector<Ipv4Packet> packets;
    int retries = 0;
  };
  std::map<uint32_t, PendingArp> pending_arp_;

  std::map<int, IcmpListener> icmp_listeners_;
  int next_icmp_token_ = 0;
  int legacy_icmp_token_ = -1;  // Slot owned by Set/ClearIcmpListener.
  std::map<uint16_t, UdpHandler> udp_handlers_;
};

}  // namespace fremont

#endif  // SRC_SIM_HOST_H_
