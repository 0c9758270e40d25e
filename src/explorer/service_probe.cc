#include "src/explorer/service_probe.h"

#include "src/net/dns.h"
#include "src/net/icmp.h"
#include "src/net/rip.h"
#include "src/net/udp.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/util/bytes.h"

namespace fremont {
namespace {

constexpr uint16_t kProbeSrcPort = 31007;

uint16_t ServicePort(KnownService service) {
  switch (service) {
    case KnownService::kUdpEcho:
      return kUdpEchoPort;
    case KnownService::kDns:
      return kDnsPort;
    case KnownService::kRip:
      return kRipPort;
    case KnownService::kNone:
      break;
  }
  return 0;
}

}  // namespace

ServiceProbe::ServiceProbe(Vantage vantage, JournalClient* journal, ServiceProbeParams params)
    : ExplorerModule("serviceprobe", "ServiceProbe", vantage, journal),
      params_(std::move(params)) {}

void ServiceProbe::StartImpl() {
  targets_ = params_.targets;
  if (targets_.empty()) {
    for (const auto& rec : journal()->GetInterfaces()) {
      if (rec.sources != SourceBit(DiscoverySource::kDns)) {  // Skip DNS-only ghosts.
        targets_.push_back(rec.ip);
      }
    }
  }
  cur_found_mask_ = 0;
  ProbeNext(0, 0);
}

void ServiceProbe::ProbeNext(size_t target_index, size_t service_index) {
  if (target_index >= targets_.size()) {
    Finish();
    Complete();
    return;
  }
  if (service_index >= params_.services.size()) {
    // Target finished: record its confirmed-service bitmask and move on.
    if (cur_found_mask_ != 0) {
      InterfaceObservation obs;
      obs.ip = targets_[target_index];
      obs.services = cur_found_mask_;
      writer().StoreInterface(obs, DiscoverySource::kManual);
    }
    cur_found_mask_ = 0;
    ProbeNext(target_index + 1, 0);
    return;
  }

  const Ipv4Address target = targets_[target_index];
  const KnownService service = params_.services[service_index];
  const uint16_t port = ServicePort(service);

  // Continuation shared by the three ways a probe can settle: an answer, a
  // Port Unreachable, or the timeout — first one wins, and drops the probe's
  // port binding and ICMP listener.
  auto settled = std::make_shared<bool>(false);
  auto listener = std::make_shared<int>(-1);
  auto settle = [this, settled, listener, target, service, target_index,
                 service_index](Verdict verdict) {
    if (*settled) {
      return;
    }
    *settled = true;
    UnbindUdp(kProbeSrcPort);
    Unlisten(*listener);
    verdicts_[{target.value(), ServiceBit(service)}] = verdict;
    if (verdict == Verdict::kPresent) {
      cur_found_mask_ |= ServiceBit(service);
      ++services_found_;
      ++mutable_report().replies_received;
    } else if (verdict == Verdict::kAbsent) {
      ++mutable_report().replies_received;  // Port unreachable is still a reply.
    } else {
      ++timeouts_;
    }
    ScheduleGuarded(params_.spacing, [this, target_index, service_index]() {
      ProbeNext(target_index, service_index + 1);
    });
  };

  if (port == 0) {
    settle(Verdict::kUnknown);
    return;
  }

  // Service-appropriate payload, so a real server actually answers.
  ByteBuffer payload;
  switch (service) {
    case KnownService::kUdpEcho:
      payload = {0x46, 0x52, 0x45, 0x4d};  // "FREM"
      break;
    case KnownService::kDns: {
      DnsMessage query;
      query.id = next_query_id_++;
      query.questions.push_back(DnsQuestion{"localhost", DnsType::kA});
      payload = query.Encode();
      break;
    }
    case KnownService::kRip: {
      RipPacket request;
      request.command = RipCommand::kRequest;
      payload = request.Encode();
      break;
    }
    case KnownService::kNone:
      break;
  }

  BindUdp(kProbeSrcPort, [settle, target](const Ipv4Packet& packet, const UdpDatagram&) {
    if (packet.src == target) {
      settle(Verdict::kPresent);
    }
  });
  *listener = ListenIcmp(
      [settle, target, port](const Ipv4Packet& packet, const IcmpMessage& message) {
        if (message.type != IcmpType::kDestUnreachable ||
            message.code != static_cast<uint8_t>(IcmpUnreachableCode::kPortUnreachable) ||
            !(packet.src == target)) {
          return;
        }
        // Match the embedded original datagram (IP header + UDP header) to
        // *this* probe. Concurrent modules — EtherHostProbe sweeps,
        // traceroute's high-port probes — elicit Port Unreachables from the
        // same hosts, and those must not settle our verdict as absent.
        const std::optional<UdpPorts> quoted = QuotedUdpPorts(message.original_datagram);
        if (quoted.has_value() && quoted->src == kProbeSrcPort && quoted->dst == port) {
          settle(Verdict::kAbsent);
        }
      });

  SendUdp(target, kProbeSrcPort, port, std::move(payload));
  ScheduleGuarded(params_.reply_timeout, [settle]() { settle(Verdict::kUnknown); });
}

void ServiceProbe::Finish() {
  if (timeouts_ > 0) {
    telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kServiceProbeTimeouts)->Add(timeouts_);
  }
  mutable_report().discovered = services_found_;
}

void ServiceProbe::CancelImpl() { Finish(); }

}  // namespace fremont
