#include "src/explorer/traceroute.h"

#include <algorithm>

#include "src/net/icmp.h"
#include "src/net/udp.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/trace.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {

Traceroute::Traceroute(Vantage vantage, JournalClient* journal, TracerouteParams params)
    : ExplorerModule("traceroute", "Traceroute", vantage, journal), params_(std::move(params)) {}

Subnet Traceroute::AssumedSubnet(Ipv4Address ip) const {
  return Subnet(ip, SubnetMask::FromPrefixLength(params_.assumed_prefix));
}

std::vector<ExplorerReport> Traceroute::RunFromVantages(const std::vector<Host*>& vantages,
                                                        JournalClient* journal,
                                                        const TracerouteParams& params) {
  std::vector<ExplorerReport> reports;
  for (Host* vantage : vantages) {
    Traceroute trace(vantage, journal, params);
    reports.push_back(trace.Run());
  }
  return reports;
}

void Traceroute::StartImpl() {
  targets_ = params_.targets;
  if (targets_.empty()) {
    // Direct discovery from the Journal: trace towards every known subnet.
    // (RIPwatch results are the usual feeder, per the paper.)
    for (const auto& rec : journal()->GetSubnets()) {
      targets_.push_back(rec.subnet);
    }
  }
  // Never trace towards our own subnet.
  if (const auto iface = vantage().primary_interface(); iface.has_value()) {
    const Subnet own = iface->AttachedSubnet();
    std::erase_if(targets_, [&](const Subnet& s) { return s == own; });
  }
  if (targets_.empty()) {
    Complete();
    return;
  }

  // Build per-address traces: host zero, .1, .2 (or just host zero).
  for (size_t t = 0; t < targets_.size(); ++t) {
    const int addresses = params_.probe_three_addresses ? 3 : 1;
    for (int a = 0; a < addresses; ++a) {
      AddressTrace trace;
      trace.target_index = t;
      trace.probe_address = Ipv4Address(targets_[t].network().value() + static_cast<uint32_t>(a));
      trace.current_ttl = std::max(1, params_.initial_ttl);
      traces_.push_back(trace);
      ready_.push_back(traces_.size() - 1);
    }
  }

  ListenIcmp([this](const Ipv4Packet& packet, const IcmpMessage& message) {
    OnIcmp(packet, message);
    // A terminal reply (or loop/backbone stop) may have been the last open
    // question; nothing after this touches the module.
    MaybeFinish();
  });

  PumpSend();
}

void Traceroute::MaybeFinish() {
  if (AllDone()) {
    Complete();
  }
}

void Traceroute::Finish() {
  // Collate per-target results.
  for (size_t t = 0; t < targets_.size(); ++t) {
    TraceResult result;
    result.target = targets_[t];
    for (const auto& trace : traces_) {
      if (trace.target_index != t) {
        continue;
      }
      for (size_t h = 0; h < trace.hops_seen.size(); ++h) {
        const Ipv4Address hop = trace.hops_seen[h];
        if (hop.IsZero()) {
          continue;
        }
        if (static_cast<int>(result.hops.size()) < static_cast<int>(h) + 1) {
          result.hops.resize(h + 1);
        }
        result.hops[h] = TracerouteHop{static_cast<int>(h) + 1, hop};
      }
      if (trace.reached && !result.reached) {
        result.reached = true;
        result.terminal = trace.terminal;
        result.terminal_in_target = targets_[t].Contains(trace.terminal);
      }
      result.loop_detected |= trace.loop_detected;
    }
    results_.push_back(std::move(result));
  }
  WriteFindings();
}

bool Traceroute::AllDone() const {
  return ready_.empty() &&
         std::all_of(traces_.begin(), traces_.end(),
                     [](const AddressTrace& t) { return t.done; }) &&
         outstanding_.empty();
}

void Traceroute::PumpSend() {
  if (pump_scheduled_) {
    return;
  }
  if (ready_.empty()) {
    return;
  }
  pump_scheduled_ = true;
  const Duration spacing = Duration::SecondsF(1.0 / params_.packets_per_second);
  ScheduleGuarded(spacing, [this]() {
    pump_scheduled_ = false;
    if (ready_.empty()) {
      return;
    }
    const size_t trace_index = ready_.front();
    ready_.erase(ready_.begin());
    SendProbe(trace_index);
    PumpSend();
  });
}

void Traceroute::SendProbe(size_t trace_index) {
  AddressTrace& trace = traces_[trace_index];
  if (trace.done) {
    return;
  }
  const uint16_t port = static_cast<uint16_t>(kTracerouteBasePort + (next_port_++ % 4000));
  outstanding_[port] = Outstanding{trace_index, trace.current_ttl, trace.attempts_at_ttl};
  ++trace.attempts_at_ttl;

  SendUdp(trace.probe_address, 40001, port, {}, static_cast<uint8_t>(trace.current_ttl));

  // Timeout: if this probe is still outstanding after reply_timeout, advance.
  const int ttl = trace.current_ttl;
  const int attempt = trace.attempts_at_ttl - 1;
  ScheduleGuarded(params_.reply_timeout, [this, trace_index, ttl, attempt, port]() {
    auto it = outstanding_.find(port);
    if (it != outstanding_.end() && it->second.trace_index == trace_index &&
        it->second.ttl == ttl && it->second.attempt == attempt) {
      outstanding_.erase(it);
      AdvanceAfterTimeout(trace_index, ttl, attempt);
    }
    MaybeFinish();
  });
}

void Traceroute::AdvanceAfterTimeout(size_t trace_index, int ttl, int attempt) {
  AddressTrace& trace = traces_[trace_index];
  if (trace.done || trace.current_ttl != ttl) {
    return;
  }
  telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kTracerouteTimeouts)->Increment();
  if (attempt + 1 < params_.attempts_per_hop) {
    // Retry this TTL.
    ready_.push_back(trace_index);
    PumpSend();
    return;
  }
  // Hop is silent: record the gap and move on.
  if (static_cast<int>(trace.hops_seen.size()) < ttl) {
    trace.hops_seen.resize(ttl);
  }
  ++trace.silent_ttls;
  AdvanceTrace(trace_index, /*got_reply=*/false);
}

void Traceroute::AdvanceTrace(size_t trace_index, bool got_reply) {
  AddressTrace& trace = traces_[trace_index];
  if (got_reply) {
    trace.silent_ttls = 0;
  }
  if (trace.silent_ttls >= params_.max_silent_hops || trace.current_ttl >= params_.max_ttl) {
    trace.done = true;
    return;
  }
  ++trace.current_ttl;
  trace.attempts_at_ttl = 0;
  ready_.push_back(trace_index);
  PumpSend();
}

void Traceroute::OnIcmp(const Ipv4Packet& packet, const IcmpMessage& message) {
  if (message.type != IcmpType::kTimeExceeded && message.type != IcmpType::kDestUnreachable) {
    return;
  }
  // Match the reply to its probe by the destination port of the quoted
  // original datagram.
  const std::optional<UdpPorts> quoted = QuotedUdpPorts(message.original_datagram);
  if (!quoted.has_value()) {
    return;
  }
  auto it = outstanding_.find(quoted->dst);
  if (it == outstanding_.end()) {
    return;
  }
  const Outstanding probe = it->second;
  outstanding_.erase(it);
  ++mutable_report().replies_received;
  auto& tracer = telemetry::Tracer::Global();
  if (tracer.enabled()) {
    tracer.Record(vantage().Now(), telemetry::TraceEventKind::kReplyMatched, "traceroute",
                  StringPrintf("ttl=%d hop=%s", probe.ttl, packet.src.ToString().c_str()));
  }

  AddressTrace& trace = traces_[probe.trace_index];
  if (trace.done) {
    return;
  }

  if (message.type == IcmpType::kTimeExceeded) {
    const Ipv4Address hop = packet.src;
    if (static_cast<int>(trace.hops_seen.size()) < probe.ttl) {
      trace.hops_seen.resize(probe.ttl);
    }
    trace.hops_seen[probe.ttl - 1] = hop;

    // Routing loop: the same gateway twice. Stop tracing this address (the
    // paper: "the system stops tracing towards a particular destination if
    // it detects a routing loop").
    const int count = static_cast<int>(
        std::count(trace.hops_seen.begin(), trace.hops_seen.end(), hop));
    if (count > 1) {
      trace.done = true;
      trace.loop_detected = true;
      return;
    }
    // Backbone stop list.
    for (const Subnet& stop : params_.stop_networks) {
      if (stop.Contains(hop)) {
        trace.done = true;
        return;
      }
    }
    if (probe.ttl == trace.current_ttl) {
      AdvanceTrace(probe.trace_index, /*got_reply=*/true);
    }
    return;
  }

  // Destination Unreachable: terminal.
  trace.reached = true;
  trace.terminal = packet.src;
  trace.done = true;
}

void Traceroute::WriteFindings() {
  std::set<uint32_t> confirmed_subnets;

  for (const auto& result : results_) {
    // Each responding hop is a gateway interface.
    Ipv4Address previous_hop;
    for (const auto& hop : result.hops) {
      if (hop.address.IsZero()) {
        previous_hop = Ipv4Address();
        continue;
      }
      GatewayObservation gw;
      gw.interface_ips = {hop.address};
      gw.connected_subnets = {AssumedSubnet(hop.address)};
      if (!previous_hop.IsZero()) {
        // The previous gateway forwarded onto the subnet this hop answered
        // from: it is connected to that subnet even though we don't know its
        // interface address there.
        GatewayObservation prev;
        prev.interface_ips = {previous_hop};
        prev.connected_subnets = {AssumedSubnet(hop.address)};
        writer().StoreGateway(prev, DiscoverySource::kTraceroute);
      }
      writer().StoreGateway(gw, DiscoverySource::kTraceroute);
      confirmed_subnets.insert(AssumedSubnet(hop.address).network().value());
      previous_hop = hop.address;
    }

    if (result.reached) {
      confirmed_subnets.insert(result.target.network().value());
      if (result.terminal_in_target) {
        // A real interface inside the target subnet answered.
        InterfaceObservation obs;
        obs.ip = result.terminal;
        writer().StoreInterface(obs, DiscoverySource::kTraceroute);
        SubnetObservation subnet_obs;
        subnet_obs.subnet = result.target;
        writer().StoreSubnet(subnet_obs, DiscoverySource::kTraceroute);
        if (!result.hops.empty() && !result.hops.back().address.IsZero()) {
          GatewayObservation last_gw;
          last_gw.interface_ips = {result.hops.back().address};
          last_gw.connected_subnets = {result.target};
          writer().StoreGateway(last_gw, DiscoverySource::kTraceroute);
        }
      } else {
        // The paper's special case: a gateway answered for the subnet; it is
        // connected to the target without a known interface address there.
        GatewayObservation gw;
        gw.interface_ips = {result.terminal};
        gw.connected_subnets = {result.target, AssumedSubnet(result.terminal)};
        writer().StoreGateway(gw, DiscoverySource::kTraceroute);
      }
    }
  }
  subnets_discovered_ = static_cast<int>(confirmed_subnets.size());
  mutable_report().discovered = subnets_discovered_;
}

}  // namespace fremont
