// DNS Explorer Module (active).
//
// Walks a network's reverse ("in-addr.arpa") tree with zone transfers — like
// the paper's nslookup-derived module — then issues forward A lookups and
// applies the paper's gateway-inference heuristics:
//
//   * multiple A records for one name          → multi-homed box: a gateway;
//   * multiple names for one address, where a
//     name in the group matches a gateway
//     naming convention ("-gw" and friends)    → gateway;
//   * a name itself matching the convention    → gateway even with one A.
//
// The module also asks one of the first-discovered hosts (preferring the
// name server, whose configuration is most likely correct) for the subnet
// mask via ICMP, and uses it to compute per-subnet host counts and the
// lowest/highest assigned addresses.
//
// Per the paper, plain name/address pairs are NOT written to the Journal by
// default ("we do not record a name/address pair if it is the only
// information that we have involving an interface") — the DNS already has
// them. Benches read the discovery counts from the report instead.

#ifndef SRC_EXPLORER_DNS_EXPLORER_H_
#define SRC_EXPLORER_DNS_EXPLORER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/net/dns.h"

namespace fremont {

struct DnsExplorerParams {
  // Class B/C network to explore (network address, e.g. 128.138.0.0).
  Ipv4Address network;
  // The name server to query.
  Ipv4Address server;
  Duration query_timeout = Duration::Seconds(5);
  // Pacing between queries ("10 pkts/sec" network load in Table 4).
  Duration query_spacing = Duration::Millis(100);
  // Write plain (non-gateway) host interfaces to the Journal too.
  bool record_plain_hosts = false;
  // Gateway naming conventions matched against the first label.
  std::vector<std::string> gateway_suffixes = {"-gw", "-gate", "-gateway", "-router"};
};

class DnsExplorer : public ExplorerModule {
 public:
  DnsExplorer(Vantage vantage, JournalClient* journal, DnsExplorerParams params = {});

  // Distinct addresses found in the zone (Table 5's DNS row).
  int interfaces_found() const { return static_cast<int>(ip_to_names_.size()); }
  // Distinct subnets with at least one registered address (Table 6).
  int subnets_found() const { return static_cast<int>(subnets_.size()); }
  int gateways_found() const { return gateways_found_; }
  // Subnets connected by identified gateways (Table 6's last row).
  int gateway_subnets() const { return static_cast<int>(gateway_subnets_.size()); }
  SubnetMask discovered_mask() const { return mask_; }
  // Addresses found in the zone inside one subnet (the Table 5 "% of Total"
  // denominator is per-subnet).
  int interfaces_in(const Subnet& subnet) const;
  // Host/OS type info from HINFO records (name → "CPU/OS"). The paper found
  // this "rarely supplied" in deployed zones; the count quantifies it.
  const std::map<std::string, std::string>& host_types() const { return host_types_; }

 protected:
  void StartImpl() override;
  void CancelImpl() override;

 private:
  // Event-driven query primitives: each binds/sends/schedules and invokes
  // its continuation once the answer arrives or the timeout fires (queries
  // pace the continuation by query_spacing, matching the paper's 10 pkt/s).
  void StartQuery(const std::string& name, DnsType qtype,
                  std::function<void(std::optional<DnsMessage>)> then);
  // AXFR: collects the SOA-bracketed, possibly multi-message record stream.
  void StartZoneTransfer(const std::string& zone,
                         std::function<void(std::vector<DnsResourceRecord>)> then);
  // ICMP mask request to `target`, per the paper invoked from this module.
  void StartMaskRequest(Ipv4Address target,
                        std::function<void(std::optional<SubnetMask>)> then);

  // Phase chain: zone transfer → mask chain → forward lookups → analysis.
  void OnTransferDone(std::vector<DnsResourceRecord> transfer);
  void TryNextMask(size_t index);
  void BeginForwardLookups();
  void NextForwardLookup(size_t index);
  void Analyze();
  void FinishReport();

  bool MatchesGatewayConvention(const std::string& name) const;

  DnsExplorerParams params_;
  std::vector<Ipv4Address> mask_candidates_;
  std::vector<std::string> lookup_names_;

  std::map<uint32_t, std::vector<std::string>> ip_to_names_;
  std::map<std::string, std::vector<Ipv4Address>> name_to_ips_;
  std::map<std::string, std::string> host_types_;
  std::set<uint32_t> subnets_;
  std::set<uint32_t> gateway_subnets_;
  int gateways_found_ = 0;
  SubnetMask mask_ = SubnetMask::FromPrefixLength(24);
  uint16_t next_query_id_ = 1;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_DNS_EXPLORER_H_
