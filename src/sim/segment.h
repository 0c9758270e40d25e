// A shared Ethernet segment (one subnet's wire).
//
// Frames transmitted on a segment are delivered to attached interfaces after
// a propagation delay. A simple load-dependent collision model captures the
// failure mode the paper reports for broadcast ping: "closely spaced replies
// can cause many collisions", costing it ~25% of the hosts on a busy subnet.
//
// Promiscuous taps model the SunOS Network Interface Tap (NIT) that the
// ARPwatch and RIPwatch Explorer Modules use: a tap sees every successfully
// delivered frame on the segment and injects nothing.

#ifndef SRC_SIM_SEGMENT_H_
#define SRC_SIM_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/ipv4_address.h"
#include "src/net/mac_address.h"
#include "src/net/udp.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace fremont {

class Segment;
class ShardedEventQueue;

// One delivery of a frame as its receivers see it: the Ethernet frame plus
// its IPv4 packet and UDP datagram, each decoded at most once however many
// receivers ask, so a broadcast is parsed once rather than once per station.
// A view lives for one delivery event on the delivering shard; a receiver on
// another shard gets its own view built there, so no view crosses threads.
class FrameView {
 public:
  explicit FrameView(const EthernetFrame& frame) : frame_(frame) {}
  FrameView(const FrameView&) = delete;
  FrameView& operator=(const FrameView&) = delete;

  const EthernetFrame& frame() const { return frame_; }
  // The carried IPv4 packet; null unless the frame is IPv4 and the packet
  // decodes (header checksum included).
  const Ipv4Packet* ipv4() const;
  // The UDP datagram inside ipv4(); null unless that packet is UDP and the
  // datagram decodes.
  const UdpDatagram* udp() const;

 private:
  const EthernetFrame& frame_;
  // Outer optional: decoded yet? Inner: the decode's result.
  mutable std::optional<std::optional<Ipv4Packet>> ipv4_;
  mutable std::optional<std::optional<UdpDatagram>> udp_;
};

// Receiver half of a node: interfaces hand arriving frames to their owner
// through this interface. Host implements it.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void OnFrame(struct Interface* iface, const FrameView& view) = 0;
};

// One network attachment point ("interface" in the paper's terminology: a
// separately addressable network connection to a machine).
struct Interface {
  FrameSink* owner = nullptr;
  Segment* segment = nullptr;
  // Shard the owning host executes on; frame delivery crossing onto another
  // shard goes through the runtime's mailbox rather than a direct call.
  int owner_shard = 0;
  MacAddress mac;
  Ipv4Address ip;
  SubnetMask mask;
  // Atomic: a segment on one shard reads it at delivery time while the
  // owner's shard may be flipping it (SetUp).
  std::atomic<bool> up{true};

  Subnet AttachedSubnet() const { return Subnet(ip, mask); }
};

struct SegmentParams {
  // One-way propagation + transmission delay per frame.
  Duration latency = Duration::Micros(500);
  // Collision model: frames transmitted within `collision_window` of each
  // other contend; each extra contender adds `loss_per_concurrent` drop
  // probability, capped at `max_loss`. The window is shorter than the
  // segment latency, so causally-ordered request/reply exchanges never
  // contend — only genuinely simultaneous transmissions (e.g. fifty
  // broadcast-ping replies) do, which is the failure mode the paper reports.
  Duration collision_window = Duration::Micros(200);
  double loss_per_concurrent = 0.3;
  double max_loss = 0.85;
};

struct SegmentStats {
  uint64_t frames_sent = 0;
  uint64_t frames_dropped = 0;
  uint64_t bytes_sent = 0;
};

class Segment {
 public:
  Segment(std::string name, Subnet subnet, SegmentParams params, EventQueue* events, Rng* rng);
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  const std::string& name() const { return name_; }
  const Subnet& subnet() const { return subnet_; }

  // Shard placement (Simulator::CreateSegment). With a runtime attached,
  // Transmit() from another shard hops onto this segment's shard first, and
  // delivery to an interface whose owner lives elsewhere hops again — both
  // via mailbox posts that respect window barriers.
  void SetShard(ShardedEventQueue* runtime, int shard);
  int shard() const { return shard_; }

  // Registers an interface on this segment. The Interface object is owned by
  // its Host; the segment only references it.
  void Attach(Interface* iface);
  void Detach(Interface* iface);
  const std::vector<Interface*>& interfaces() const { return interfaces_; }

  // Transmits a frame. Delivery to each receiver is scheduled after the
  // segment latency; the collision model may drop the frame entirely. The
  // frame moves into the delivery event, so a sender that is done with it
  // passes it with std::move and its payload is never copied.
  void Transmit(EthernetFrame frame);

  // Promiscuous taps (the NIT). Returns a token for RemoveTap.
  using TapFn = std::function<void(const EthernetFrame&, SimTime)>;
  int AddTap(TapFn tap);
  void RemoveTap(int token);
  size_t tap_count() const { return taps_.size(); }

  const SegmentStats& stats() const { return stats_; }
  // Frames transmitted in the window [since, now]; benches use this to
  // measure a module's network load.
  uint64_t frames_sent() const { return stats_.frames_sent; }

 private:
  // Number of *other stations'* transmissions within the collision window
  // ending now. A station never collides with its own back-to-back frames
  // (its NIC serializes them and carrier-sense defers).
  int ConcurrentTransmissions(MacAddress src);

  // The single-shard transmit path: collision model + delivery scheduling.
  // Must execute on this segment's shard.
  void TransmitLocal(EthernetFrame frame);
  // Hands the frame to one receiver, hopping shards if the owner is remote.
  void DeliverTo(Interface* iface, const FrameView& view);

  std::string name_;
  Subnet subnet_;
  SegmentParams params_;
  EventQueue* events_;
  Rng* rng_;
  ShardedEventQueue* runtime_ = nullptr;
  int shard_ = 0;
  std::vector<Interface*> interfaces_;
  std::unordered_map<MacAddress, Interface*> by_mac_;
  std::unordered_map<int, TapFn> taps_;
  int next_tap_token_ = 1;
  struct RecentTx {
    SimTime when;
    MacAddress src;
  };
  std::deque<RecentTx> recent_tx_;
  SegmentStats stats_;
};

}  // namespace fremont

#endif  // SRC_SIM_SEGMENT_H_
