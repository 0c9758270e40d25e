#include "src/sim/segment.h"

#include <algorithm>

#include "src/sim/runtime/sharded_event_queue.h"
#include "src/util/logging.h"

namespace fremont {

const Ipv4Packet* FrameView::ipv4() const {
  if (!ipv4_.has_value()) {
    ipv4_.emplace(frame_.ethertype == EtherType::kIpv4 ? Ipv4Packet::Decode(frame_.payload)
                                                       : std::nullopt);
  }
  return ipv4_->has_value() ? &**ipv4_ : nullptr;
}

const UdpDatagram* FrameView::udp() const {
  if (!udp_.has_value()) {
    const Ipv4Packet* packet = ipv4();
    udp_.emplace(packet != nullptr && packet->protocol == IpProtocol::kUdp
                     ? UdpDatagram::Decode(packet->payload)
                     : std::nullopt);
  }
  return udp_->has_value() ? &**udp_ : nullptr;
}

Segment::Segment(std::string name, Subnet subnet, SegmentParams params, EventQueue* events,
                 Rng* rng)
    : name_(std::move(name)), subnet_(subnet), params_(params), events_(events), rng_(rng) {}

void Segment::SetShard(ShardedEventQueue* runtime, int shard) {
  runtime_ = runtime;
  shard_ = runtime == nullptr ? 0 : shard;
}

void Segment::Attach(Interface* iface) {
  iface->segment = this;
  interfaces_.push_back(iface);
  by_mac_[iface->mac] = iface;
}

void Segment::Detach(Interface* iface) {
  interfaces_.erase(std::remove(interfaces_.begin(), interfaces_.end(), iface),
                    interfaces_.end());
  by_mac_.erase(iface->mac);
  iface->segment = nullptr;
}

int Segment::ConcurrentTransmissions(MacAddress src) {
  const SimTime now = events_->Now();
  const SimTime window_start = now - params_.collision_window;
  while (!recent_tx_.empty() && recent_tx_.front().when < window_start) {
    recent_tx_.pop_front();
  }
  int contenders = 0;
  for (const RecentTx& tx : recent_tx_) {
    if (tx.src != src) {
      ++contenders;
    }
  }
  recent_tx_.push_back(RecentTx{now, src});
  return contenders;
}

void Segment::Transmit(EthernetFrame frame) {
  // A sender on another shard hops onto this segment's shard first: the
  // collision window, stats, and the segment's RNG draw all belong to this
  // shard and must not run remotely. The hop becomes runnable at the next
  // window barrier, no earlier than the sender's current time.
  if (runtime_ != nullptr && ShardedEventQueue::CurrentShard() != shard_) {
    const EventQueue* sender = ShardedEventQueue::CurrentQueue();
    const SimTime when = sender != nullptr ? sender->Now() : runtime_->Now();
    runtime_->Post(shard_, when,
                   [this, frame = std::move(frame)]() mutable { TransmitLocal(std::move(frame)); });
    return;
  }
  TransmitLocal(std::move(frame));
}

void Segment::TransmitLocal(EthernetFrame frame) {
  ++stats_.frames_sent;
  stats_.bytes_sent += 14 + frame.payload.size();

  const int contenders = ConcurrentTransmissions(frame.src);
  if (contenders > 0) {
    const double loss = std::min(params_.max_loss, params_.loss_per_concurrent * contenders);
    if (rng_->Bernoulli(loss)) {
      ++stats_.frames_dropped;
      return;  // Collision: nobody receives the frame.
    }
  }

  // The frame moves into the closure; delivery happens after the latency.
  events_->Schedule(params_.latency, [this, frame = std::move(frame)]() {
    for (const auto& [token, tap] : taps_) {
      (void)token;
      tap(frame, events_->Now());
    }
    const FrameView view(frame);
    if (frame.dst.IsBroadcast() || frame.dst.IsMulticast()) {
      // Deliver to every up interface except the sender's own.
      for (Interface* iface : interfaces_) {
        if (iface->mac != frame.src) {
          DeliverTo(iface, view);
        }
      }
    } else {
      auto it = by_mac_.find(frame.dst);
      if (it != by_mac_.end()) {
        DeliverTo(it->second, view);
      }
    }
  });
}

void Segment::DeliverTo(Interface* iface, const FrameView& view) {
  if (runtime_ != nullptr && iface->owner_shard != shard_) {
    // Receiver lives on another shard: the frame crosses at the next window
    // barrier, stamped with this segment's delivery time, and is decoded
    // there into a view of its own. The up check moves with it so the
    // receiver's own shard decides.
    runtime_->Post(iface->owner_shard, events_->Now(), [iface, frame = view.frame()]() {
      if (iface->up) {
        iface->owner->OnFrame(iface, FrameView(frame));
      }
    });
    return;
  }
  if (iface->up) {
    iface->owner->OnFrame(iface, view);
  }
}

int Segment::AddTap(TapFn tap) {
  int token = next_tap_token_++;
  taps_[token] = std::move(tap);
  return token;
}

void Segment::RemoveTap(int token) { taps_.erase(token); }

}  // namespace fremont
