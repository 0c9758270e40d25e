#include "src/sim/rip_daemon.h"

#include <algorithm>

#include "src/util/audit.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {

RipDaemon::RipDaemon(Host* host, Router* router, RipDaemonConfig config)
    : host_(host), router_(router), config_(config) {}

RipDaemon::~RipDaemon() { Stop(); }

void RipDaemon::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++generation_;
  liveness_ = std::make_shared<RipDaemon*>(this);
  host_->BindUdp(kRipPort, [this](const Ipv4Packet& packet, const UdpDatagram& datagram) {
    OnRipPacket(packet, datagram);
  });

  // Splay the first advertisement randomly across the period so dozens of
  // routers on one backbone don't broadcast in collision-prone lockstep.
  ScheduleTick(
      Duration::Millis(100 + host_->rng()->Uniform(0, config_.advertise_interval.ToMillis())));
}

void RipDaemon::ScheduleTick(Duration delay) {
  // The event holds only a weak reference: if the daemon is stopped or
  // destroyed before the event fires, the tick silently evaporates.
  std::weak_ptr<RipDaemon*> weak = liveness_;
  const uint64_t generation = generation_;
  host_->events()->Schedule(delay, [weak, generation]() {
    auto self = weak.lock();
    if (self != nullptr && (*self)->running_ && (*self)->generation_ == generation) {
      (*self)->Tick();
    }
  });
}

void RipDaemon::Tick() {
  Advertise();
  if (router_ != nullptr) {
    router_->routing_table().ExpireStale(host_->Now(), config_.route_max_age);
  }
  ScheduleTick(config_.advertise_interval);
}

void RipDaemon::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  ++generation_;
  liveness_.reset();
  host_->UnbindUdp(kRipPort);
}

void RipDaemon::Advertise() {
  for (const auto& iface : host_->interfaces()) {
    if (iface->up && iface->segment != nullptr) {
      AdvertiseOn(iface.get());
    }
  }
}

uint64_t RipDaemon::AdvertisedVersion() const {
  if (config_.promiscuous_rebroadcast) {
    return heard_version_;
  }
  return router_ != nullptr ? router_->routing_table().version() : 0;
}

template <typename Emit>
void RipDaemon::EncodeAdvertisement(const Interface* iface, Emit emit) const {
  // RFC 1058: at most 25 routes per packet; large tables are split. Routes
  // fill one packet at a time, encoded as it fills.
  RipPacket chunk;
  chunk.command = RipCommand::kResponse;
  chunk.entries.reserve(RipPacket::kMaxEntries);
  auto encode_chunk = [&chunk, &emit]() {
    UdpDatagram datagram;
    datagram.src_port = kRipPort;
    datagram.dst_port = kRipPort;
    datagram.payload = chunk.Encode();
    emit(datagram.Encode());
    chunk.entries.clear();
  };
  auto add = [&chunk, &encode_chunk](RipEntry entry) {
    chunk.entries.push_back(entry);
    if (chunk.entries.size() == RipPacket::kMaxEntries) {
      encode_chunk();
    }
  };

  if (config_.promiscuous_rebroadcast) {
    // The fault: everything we ever heard, echoed back onto the wire with an
    // incremented metric, including routes learned from this same subnet.
    for (const auto& [address, metric] : heard_routes_) {
      add(RipEntry{Ipv4Address(address), std::min<uint32_t>(metric + 1, kRipMetricInfinity)});
    }
  } else if (router_ != nullptr) {
    for (const auto& route : router_->routing_table().entries()) {
      if (route.metric >= kRipMetricInfinity) {
        continue;
      }
      // Split horizon: do not advertise a route back onto the interface it
      // points out of.
      if (route.out_iface == iface) {
        continue;
      }
      add(RipEntry{route.destination.network(), route.metric});
    }
  }
  if (!chunk.entries.empty()) {
    encode_chunk();
  }
}

bool RipDaemon::IsCurrentAdvertisement(const Interface* iface,
                                       const std::vector<ByteBuffer>& datagrams) const {
  size_t emitted = 0;
  bool same = true;
  EncodeAdvertisement(iface, [&datagrams, &emitted, &same](const ByteBuffer& datagram) {
    same = same && emitted < datagrams.size() && datagrams[emitted] == datagram;
    ++emitted;
  });
  return same && emitted == datagrams.size();
}

void RipDaemon::AdvertiseOn(Interface* iface) {
  const uint64_t version = AdvertisedVersion();
  auto cached = std::find_if(advertisements_.begin(), advertisements_.end(),
                             [iface](const CachedAdvertisement& c) { return c.iface == iface; });
  const bool fresh = cached == advertisements_.end();
  if (fresh) {
    cached = advertisements_.insert(advertisements_.end(), CachedAdvertisement{iface, version, {}});
  }
  if (fresh || cached->version != version) {
    cached->version = version;
    cached->datagrams.clear();
    EncodeAdvertisement(iface, [&cached](ByteBuffer datagram) {
      cached->datagrams.push_back(std::move(datagram));
    });
  } else {
    FREMONT_AUDIT_CHECK(IsCurrentAdvertisement(iface, cached->datagrams),
                        StringPrintf("%s: cached RIP advertisement on %s is stale at version %llu",
                                     host_->name().c_str(), iface->ip.ToString().c_str(),
                                     static_cast<unsigned long long>(version)));
  }

  // Chunks are paced a few milliseconds apart (as routed's sendto loop
  // effectively is) rather than transmitted in one instantaneous burst. The
  // IP header is built per send: each gets its own identification.
  for (size_t i = 0; i < cached->datagrams.size(); ++i) {
    Ipv4Packet out;
    out.protocol = IpProtocol::kUdp;
    out.ttl = 1;  // RIP never crosses a gateway.
    out.src = iface->ip;
    out.dst = iface->AttachedSubnet().BroadcastAddress();
    out.payload = cached->datagrams[i];
    if (i == 0) {
      host_->SendIpPacket(std::move(out));
    } else {
      Host* host = host_;
      host_->events()->Schedule(
          Duration::Millis(3 * static_cast<int64_t>(i)),
          [host, out = std::move(out)]() mutable { host->SendIpPacket(std::move(out)); });
    }
  }
}

Subnet RipDaemon::InferSubnet(Ipv4Address advertised, Interface* iface) const {
  const Subnet iface_net(iface->ip, iface->ip.NaturalMask());
  if (iface_net.Contains(advertised)) {
    // Same classful network: apply the interface's subnet mask. Host bits set
    // below the subnet mask would indicate a host route; Fremont's sim
    // campus advertises subnet routes, so fold to the subnet.
    return Subnet(advertised, iface->mask);
  }
  return Subnet(advertised, advertised.NaturalMask());
}

void RipDaemon::OnRipPacket(const Ipv4Packet& packet, const UdpDatagram& datagram) {
  if (!RipPacket::DecodeInto(datagram.payload, &received_)) {
    return;
  }

  if (received_.command == RipCommand::kRequest || received_.command == RipCommand::kPoll) {
    if (!config_.respond_to_requests || router_ == nullptr) {
      return;
    }
    // Unicast the full table back to the requester. Unlike broadcast
    // advertisements (TTL 1, never forwarded), these replies are routed —
    // that is the whole point of directed RIP probing — so they get a
    // normal TTL, and large tables are chunked and paced like routed's
    // sendto loop.
    std::vector<RipEntry> entries;
    for (const auto& route : router_->routing_table().entries()) {
      if (route.metric < kRipMetricInfinity) {
        entries.push_back(RipEntry{route.destination.network(), route.metric});
      }
    }
    const Ipv4Address requester = packet.src;
    const uint16_t reply_port = datagram.src_port;
    int chunk_index = 0;
    for (size_t begin = 0; begin < entries.size(); begin += RipPacket::kMaxEntries) {
      RipPacket reply;
      reply.command = RipCommand::kResponse;
      const size_t end = std::min(begin + RipPacket::kMaxEntries, entries.size());
      reply.entries.assign(entries.begin() + begin, entries.begin() + end);
      if (chunk_index == 0) {
        host_->SendUdp(requester, kRipPort, reply_port, reply.Encode());
      } else {
        Host* host = host_;
        host_->events()->Schedule(
            Duration::Millis(3 * chunk_index),
            [host, requester, reply_port, bytes = reply.Encode()]() mutable {
              host->SendUdp(requester, kRipPort, reply_port, std::move(bytes));
            });
      }
      ++chunk_index;
    }
    return;
  }

  // Response: learn.
  Interface* in_iface = nullptr;
  for (const auto& own : host_->interfaces()) {
    if (own->AttachedSubnet().Contains(packet.src)) {
      in_iface = own.get();
      break;
    }
  }
  if (in_iface == nullptr) {
    return;
  }

  for (const auto& entry : received_.entries) {
    if (config_.promiscuous_rebroadcast) {
      auto it = heard_routes_.find(entry.address.value());
      if (it == heard_routes_.end() || entry.metric < it->second) {
        heard_routes_[entry.address.value()] = entry.metric;
        ++heard_version_;
      }
      continue;
    }
    if (router_ == nullptr) {
      continue;
    }
    const Subnet destination = InferSubnet(entry.address, in_iface);
    router_->routing_table().Learn(destination, packet.src, in_iface,
                                   std::min<uint32_t>(entry.metric + 1, kRipMetricInfinity),
                                   host_->Now());
  }
}

}  // namespace fremont
