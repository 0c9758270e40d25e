#include "src/explorer/seq_ping.h"

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/logging.h"

namespace fremont {
namespace {
constexpr uint16_t kPingIdent = 0x5051;
constexpr int kPasses = 2;
}

SeqPing::SeqPing(Vantage vantage, JournalClient* journal, SeqPingParams params)
    : ExplorerModule("seqping", "SeqPing", vantage, journal), params_(params) {}

void SeqPing::StartImpl() {
  const std::optional<VantageInterface> iface = vantage().primary_interface();
  if (!iface.has_value()) {
    Complete();
    return;
  }
  const Subnet subnet = iface->AttachedSubnet();
  Ipv4Address first = params_.first.IsZero() ? subnet.HostAt(1) : params_.first;
  Ipv4Address last =
      params_.last.IsZero() ? Ipv4Address(subnet.BroadcastAddress().value() - 1) : params_.last;
  if (last < first) {
    std::swap(first, last);
  }
  for (uint32_t v = first.value(); v <= last.value(); ++v) {
    if (Ipv4Address(v) != iface->ip) {
      targets_.push_back(Ipv4Address(v));
    }
  }

  ListenIcmp([this](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kEchoReply && message.identifier == kPingIdent) {
      replied_.insert(packet.src.value());
      ++mutable_report().replies_received;
      auto& tracer = telemetry::Tracer::Global();
      if (tracer.enabled()) {
        tracer.Record(vantage().Now(), telemetry::TraceEventKind::kReplyMatched, "seqping",
                      packet.src.ToString());
      }
    }
  });

  BeginPass(0);
}

// Two passes: the full range, then one retry over the silent addresses.
void SeqPing::BeginPass(int pass) {
  std::vector<Ipv4Address> to_probe;
  for (Ipv4Address target : targets_) {
    if (!replied_.contains(target.value())) {
      to_probe.push_back(target);
    }
  }
  if (to_probe.empty()) {
    Complete();
    return;
  }
  uint16_t seq = 0;
  for (const Ipv4Address target : to_probe) {
    ScheduleGuarded(params_.interval * seq, [this, target, seq]() {
      SendIcmp(target, IcmpMessage::EchoRequest(kPingIdent, seq));
    });
    ++seq;
  }
  ScheduleGuarded(params_.interval * seq + params_.reply_timeout, [this, pass]() {
    if (pass + 1 < kPasses) {
      BeginPass(pass + 1);
    } else {
      Complete();
    }
  });
}

void SeqPing::Finish() {
  for (uint32_t v : replied_) {
    InterfaceObservation obs;
    obs.ip = Ipv4Address(v);
    writer().StoreInterface(obs, DiscoverySource::kSeqPing);
    responders_.push_back(obs.ip);
  }
  mutable_report().discovered = static_cast<int>(replied_.size());
  // Addresses that stayed silent through both passes timed out.
  uint64_t silent = 0;
  for (const Ipv4Address target : targets_) {
    if (!replied_.contains(target.value())) {
      ++silent;
    }
  }
  telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kSeqPingTimeouts)->Add(silent);
}

}  // namespace fremont
