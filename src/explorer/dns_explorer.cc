#include "src/explorer/dns_explorer.h"

#include <algorithm>

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace fremont {
namespace {
constexpr uint16_t kDnsClientPort = 40053;
constexpr uint16_t kMaskIdent = 0x444d;
}  // namespace

DnsExplorer::DnsExplorer(Vantage vantage, JournalClient* journal, DnsExplorerParams params)
    : ExplorerModule("dns", "DNS", vantage, journal), params_(std::move(params)) {}

void DnsExplorer::CancelImpl() { FinishReport(); }

void DnsExplorer::StartQuery(const std::string& name, DnsType qtype,
                             std::function<void(std::optional<DnsMessage>)> then) {
  DnsMessage query;
  query.id = next_query_id_++;
  query.questions.push_back(DnsQuestion{ToLowerAscii(name), qtype});

  // The answer and the settle latch are shared between the reply handler and
  // the timeout event; whichever fires first settles the query.
  auto answer = std::make_shared<std::optional<DnsMessage>>();
  auto settled = std::make_shared<bool>(false);
  const uint16_t want_id = query.id;
  auto settle = [this, answer, settled, then = std::move(then)]() {
    if (*settled) {
      return;
    }
    *settled = true;
    UnbindUdp(kDnsClientPort);
    if (answer->has_value()) {
      ++mutable_report().replies_received;
    } else {
      telemetry::MetricsRegistry::Global().GetCounter(telemetry::names::kDnsTimeouts)->Increment();
    }
    // Pace the next query.
    ScheduleGuarded(params_.query_spacing, [answer, then]() { then(*answer); });
  };
  BindUdp(kDnsClientPort, [answer, want_id, settle](const Ipv4Packet&,
                                                    const UdpDatagram& datagram) {
    auto response = DnsMessage::Decode(datagram.payload);
    if (response.has_value() && response->is_response && response->id == want_id) {
      *answer = std::move(response);
      settle();
    }
  });
  SendUdp(params_.server, kDnsClientPort, kDnsPort, query.Encode());
  ScheduleGuarded(params_.query_timeout, [settle]() { settle(); });
}

void DnsExplorer::StartZoneTransfer(const std::string& zone,
                                    std::function<void(std::vector<DnsResourceRecord>)> then) {
  DnsMessage query;
  query.id = next_query_id_++;
  query.questions.push_back(DnsQuestion{ToLowerAscii(zone), DnsType::kAxfr});

  // The server brackets the stream with SOA records and may split it across
  // several messages; collect until the closing SOA or timeout.
  auto records = std::make_shared<std::vector<DnsResourceRecord>>();
  auto soas_seen = std::make_shared<int>(0);
  auto settled = std::make_shared<bool>(false);
  const uint16_t want_id = query.id;
  auto settle = [this, records, soas_seen, settled, then = std::move(then)]() {
    if (*settled) {
      return;
    }
    *settled = true;
    UnbindUdp(kDnsClientPort);
    if (*soas_seen > 0) {
      ++mutable_report().replies_received;
    }
    ScheduleGuarded(params_.query_spacing, [records, then]() { then(std::move(*records)); });
  };
  BindUdp(kDnsClientPort, [records, soas_seen, want_id, settle](const Ipv4Packet&,
                                                                const UdpDatagram& datagram) {
    auto response = DnsMessage::Decode(datagram.payload);
    if (!response.has_value() || !response->is_response || response->id != want_id) {
      return;
    }
    for (auto& rr : response->answers) {
      if (rr.type == DnsType::kSoa) {
        ++*soas_seen;
      } else {
        records->push_back(std::move(rr));
      }
    }
    if (*soas_seen >= 2) {
      settle();
    }
  });
  SendUdp(params_.server, kDnsClientPort, kDnsPort, query.Encode());
  ScheduleGuarded(params_.query_timeout, [settle]() { settle(); });
}

void DnsExplorer::StartMaskRequest(Ipv4Address target,
                                   std::function<void(std::optional<SubnetMask>)> then) {
  auto result = std::make_shared<std::optional<SubnetMask>>();
  auto settled = std::make_shared<bool>(false);
  auto listener = std::make_shared<int>(-1);
  auto settle = [this, result, settled, listener, then = std::move(then)]() {
    if (*settled) {
      return;
    }
    *settled = true;
    Unlisten(*listener);
    // Mask requests are not paced (they are one-offs between query phases).
    then(*result);
  };
  *listener = ListenIcmp(
      [result, target, settle](const Ipv4Packet& packet, const IcmpMessage& message) {
        if (message.type == IcmpType::kMaskReply && message.identifier == kMaskIdent &&
            packet.src == target) {
          *result = SubnetMask::FromValue(message.address_mask);
          settle();
        }
      });
  SendIcmp(target, IcmpMessage::MaskRequest(kMaskIdent, 0));
  ScheduleGuarded(params_.query_timeout, [settle]() { settle(); });
}

int DnsExplorer::interfaces_in(const Subnet& subnet) const {
  int count = 0;
  for (const auto& [ip, names] : ip_to_names_) {
    (void)names;
    if (subnet.Contains(Ipv4Address(ip))) {
      ++count;
    }
  }
  return count;
}

bool DnsExplorer::MatchesGatewayConvention(const std::string& name) const {
  // Examine the first (host) label only.
  const std::string label = ToLowerAscii(name.substr(0, name.find('.')));
  if (label == "gw" || label == "gateway" || label == "router") {
    return true;
  }
  for (const auto& suffix : params_.gateway_suffixes) {
    if (EndsWithIgnoreCase(label, suffix)) {
      return true;
    }
  }
  return false;
}

void DnsExplorer::StartImpl() {
  // Phase 1a: reverse zone transfer for the network. The zone depth follows
  // the network's class: a.in-addr.arpa for class A, b.a for class B, c.b.a
  // for class C.
  const uint32_t net = params_.network.value();
  std::string reverse_zone;
  switch (params_.network.AddressClass()) {
    case 'A':
      reverse_zone = StringPrintf("%u.in-addr.arpa", net >> 24);
      break;
    case 'B':
      reverse_zone = StringPrintf("%u.%u.in-addr.arpa", (net >> 16) & 0xff, net >> 24);
      break;
    default:
      reverse_zone = StringPrintf("%u.%u.%u.in-addr.arpa", (net >> 8) & 0xff, (net >> 16) & 0xff,
                                  net >> 24);
      break;
  }
  StartZoneTransfer(reverse_zone, [this, reverse_zone](std::vector<DnsResourceRecord> transfer) {
    if (transfer.empty()) {
      FLOG(kWarning) << "dns: zone transfer of " << reverse_zone << " failed";
      FinishReport();
      Complete();
      return;
    }
    OnTransferDone(std::move(transfer));
  });
}

void DnsExplorer::OnTransferDone(std::vector<DnsResourceRecord> transfer) {
  for (const auto& rr : transfer) {
    if (rr.type != DnsType::kPtr) {
      continue;
    }
    auto ip = ParseReverseDomainName(rr.name);
    if (!ip.has_value()) {
      continue;
    }
    auto& names = ip_to_names_[ip->value()];
    if (std::find(names.begin(), names.end(), rr.target_name) == names.end()) {
      names.push_back(rr.target_name);
    }
  }

  // Phase 1b: the subnet mask, asked of the name server itself first (the
  // paper: "usually one of the name servers, thus increasing the likelihood
  // that the returned mask is correct"), then of the first discovered hosts.
  mask_candidates_.clear();
  mask_candidates_.push_back(params_.server);
  for (const auto& [ip, names] : ip_to_names_) {
    (void)names;
    mask_candidates_.push_back(Ipv4Address(ip));
  }
  TryNextMask(0);
}

void DnsExplorer::TryNextMask(size_t index) {
  if (index >= mask_candidates_.size()) {
    BeginForwardLookups();
    return;
  }
  StartMaskRequest(mask_candidates_[index], [this, index](std::optional<SubnetMask> mask) {
    if (mask.has_value()) {
      mask_ = *mask;
      BeginForwardLookups();
    } else {
      TryNextMask(index + 1);
    }
  });
}

// Phase 1c: forward A lookups for every discovered name (finds the other
// interfaces of multi-homed machines).
void DnsExplorer::BeginForwardLookups() {
  std::set<std::string> all_names;
  for (const auto& [ip, names] : ip_to_names_) {
    (void)ip;
    all_names.insert(names.begin(), names.end());
  }
  lookup_names_.assign(all_names.begin(), all_names.end());
  NextForwardLookup(0);
}

void DnsExplorer::NextForwardLookup(size_t index) {
  if (index >= lookup_names_.size()) {
    Analyze();
    return;
  }
  const std::string name = lookup_names_[index];
  StartQuery(name, DnsType::kA, [this, name, index](std::optional<DnsMessage> response) {
    if (response.has_value()) {
      for (const auto& rr : response->answers) {
        if (rr.type != DnsType::kA) {
          continue;
        }
        auto& ips = name_to_ips_[name];
        if (std::find(ips.begin(), ips.end(), rr.address) == ips.end()) {
          ips.push_back(rr.address);
        }
        // A records may reveal addresses missing from the reverse tree.
        auto& names = ip_to_names_[rr.address.value()];
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          names.push_back(name);
        }
      }
      // Host/OS type from additional-data HINFO, where the zone supplies it.
      for (const auto& rr : response->additional) {
        if (rr.type == DnsType::kHinfo) {
          host_types_[rr.name] = rr.hinfo_cpu + "/" + rr.hinfo_os;
        }
      }
    }
    NextForwardLookup(index + 1);
  });
}

// Phase 2: CPU-bound analysis — gateway inference and subnet statistics.
void DnsExplorer::Analyze() {
  std::set<std::string> gateway_names;
  for (const auto& [name, ips] : name_to_ips_) {
    if (ips.size() >= 2 || MatchesGatewayConvention(name)) {
      gateway_names.insert(name);
    }
  }
  // Multi-name addresses: if any alias in the group matches the convention,
  // the whole group is one gateway under that name.
  for (const auto& [ip, names] : ip_to_names_) {
    (void)ip;
    if (names.size() < 2) {
      continue;
    }
    for (const auto& name : names) {
      if (MatchesGatewayConvention(name)) {
        gateway_names.insert(name);
      }
    }
  }

  for (const auto& name : gateway_names) {
    auto it = name_to_ips_.find(name);
    if (it == name_to_ips_.end() || it->second.empty()) {
      continue;
    }
    GatewayObservation gw;
    gw.name = name;
    gw.interface_ips = it->second;
    for (Ipv4Address ip : it->second) {
      const Subnet subnet(ip, mask_);
      gw.connected_subnets.push_back(subnet);
      gateway_subnets_.insert(subnet.network().value());
    }
    writer().StoreGateway(gw, DiscoverySource::kDns);
    ++gateways_found_;
    // Gateway member interfaces get their names recorded (the exception to
    // the don't-record-plain-DNS-data rule).
    for (Ipv4Address ip : it->second) {
      InterfaceObservation obs;
      obs.ip = ip;
      obs.dns_name = name;
      obs.mask = mask_;
      writer().StoreInterface(obs, DiscoverySource::kDns);
    }
  }

  // Subnet statistics: host count and lowest/highest assigned per subnet.
  std::map<uint32_t, std::vector<uint32_t>> by_subnet;
  for (const auto& [ip, names] : ip_to_names_) {
    (void)names;
    const Subnet subnet(Ipv4Address(ip), mask_);
    by_subnet[subnet.network().value()].push_back(ip);
    subnets_.insert(subnet.network().value());
  }
  for (const auto& [network, ips] : by_subnet) {
    SubnetObservation obs;
    obs.subnet = Subnet(Ipv4Address(network), mask_);
    obs.host_count = static_cast<int32_t>(ips.size());
    obs.lowest_assigned = Ipv4Address(*std::min_element(ips.begin(), ips.end()));
    obs.highest_assigned = Ipv4Address(*std::max_element(ips.begin(), ips.end()));
    writer().StoreSubnet(obs, DiscoverySource::kDns);
  }

  if (params_.record_plain_hosts) {
    for (const auto& [ip, names] : ip_to_names_) {
      InterfaceObservation obs;
      obs.ip = Ipv4Address(ip);
      if (!names.empty()) {
        obs.dns_name = names.front();
      }
      obs.mask = mask_;
      writer().StoreInterface(obs, DiscoverySource::kDns);
    }
  }
  FinishReport();
  Complete();
}

void DnsExplorer::FinishReport() { mutable_report().discovered = interfaces_found(); }

}  // namespace fremont
