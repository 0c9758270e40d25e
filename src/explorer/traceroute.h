// Traceroute Explorer Module (active, ICMP time-exceeded based).
//
// Discovers network structure by tracing towards target subnets with
// TTL-ramped UDP probes, exactly as the paper describes:
//
//   * Probes go to *three* addresses per target subnet — host zero, .1, and
//     .2 — to maximize the chance of a response from the subnet even when no
//     ordinary host answers (host zero is accepted by the gateway itself).
//   * Each ICMP Time Exceeded identifies one gateway interface (the near
//     side only; running from multiple vantage points fills in the rest).
//   * A terminal Unreachable from an address *inside* the target subnet
//     yields an interface record; one from outside yields the paper's
//     special case — a gateway known to be connected to the subnet without
//     knowing its interface address there.
//   * Parallel tracing is rate-limited to eight packets per second with up
//     to ~80 probes outstanding; tracing stops on routing loops and at
//     configured backbone networks.
//   * Broken routers that reflect the probe's TTL in their error replies are
//     tolerated: their hop simply resolves at a higher probe TTL.

#ifndef SRC_EXPLORER_TRACEROUTE_H_
#define SRC_EXPLORER_TRACEROUTE_H_

#include <map>
#include <set>
#include <vector>

#include "src/explorer/explorer.h"

namespace fremont {

struct TracerouteParams {
  // Subnets to trace towards. Empty = every subnet in the Journal plus the
  // vantage host's own network's subnets recorded there.
  std::vector<Subnet> targets;
  int max_ttl = 12;
  double packets_per_second = 8.0;
  Duration reply_timeout = Duration::Seconds(10);
  // Probe attempts per (address, TTL) before advancing.
  int attempts_per_hop = 2;
  // Abort an address-trace after this many consecutive silent TTLs.
  int max_silent_hops = 3;
  // Stop tracing if a hop lands inside any of these networks (the paper's
  // "several national backbone networks").
  std::vector<Subnet> stop_networks;
  // Prefix length assumed for subnets inferred from raw hop addresses (the
  // mask module refines these later).
  int assumed_prefix = 24;
  // Paper behaviour probes host-0/.1/.2; false probes only host-0 (the
  // ablation measured in bench_table6_subnets).
  bool probe_three_addresses = true;
  // TTL head start (paper future work): "if the network to be traced is only
  // reachable through node G, and if G is exactly and always H hops away...
  // then all traces can start with a TTL of H+1 rather than 1, because every
  // packet will follow the same path for the first H hops". Saves probes at
  // the cost of never re-verifying the common prefix.
  int initial_ttl = 1;
};

struct TracerouteHop {
  int ttl = 0;
  Ipv4Address address;   // Zero for a silent hop.
};

struct TraceResult {
  Subnet target;
  std::vector<TracerouteHop> hops;     // Merged over the per-address traces.
  bool reached = false;                // Some terminal reply arrived.
  Ipv4Address terminal;                // Source of the terminal reply.
  bool terminal_in_target = false;
  bool loop_detected = false;
};

class Traceroute : public ExplorerModule {
 public:
  Traceroute(Vantage vantage, JournalClient* journal, TracerouteParams params = {});

  const std::vector<TraceResult>& results() const { return results_; }
  // Subnets confirmed (terminal reply, or gateway-link inference).
  int subnets_discovered() const { return subnets_discovered_; }

  // Runs one traceroute per vantage host against the same targets, merging
  // everything in the Journal (paper future work: "running the Traceroute
  // Explorer Module from multiple points in the network" acquires the
  // far-side router interfaces a single vantage point can never see).
  static std::vector<ExplorerReport> RunFromVantages(const std::vector<Host*>& vantages,
                                                     JournalClient* journal,
                                                     const TracerouteParams& params = {});

 protected:
  void StartImpl() override;
  // Collates the per-address traces into results() and writes the findings.
  void Finish() override;

 private:
  struct AddressTrace {
    size_t target_index = 0;
    Ipv4Address probe_address;
    int current_ttl = 1;
    int attempts_at_ttl = 0;
    int silent_ttls = 0;
    bool done = false;
    bool loop_detected = false;
    std::vector<Ipv4Address> hops_seen;  // Indexed by ttl-1; zero = silent.
    bool reached = false;
    Ipv4Address terminal;
  };

  void PumpSend();
  void SendProbe(size_t trace_index);
  void OnIcmp(const Ipv4Packet& packet, const IcmpMessage& message);
  void AdvanceAfterTimeout(size_t trace_index, int ttl, int attempt);
  void AdvanceTrace(size_t trace_index, bool got_reply);
  bool AllDone() const;
  // Complete()s once AllDone().
  void MaybeFinish();
  void WriteFindings();
  Subnet AssumedSubnet(Ipv4Address ip) const;

  TracerouteParams params_;

  std::vector<Subnet> targets_;
  std::vector<AddressTrace> traces_;
  std::vector<size_t> ready_;  // Trace indices with a probe ready to send.
  // Probes in flight keyed by destination UDP port.
  struct Outstanding {
    size_t trace_index;
    int ttl;
    int attempt;
  };
  std::map<uint16_t, Outstanding> outstanding_;
  uint16_t next_port_ = 0;
  bool pump_scheduled_ = false;

  std::vector<TraceResult> results_;
  int subnets_discovered_ = 0;
};

}  // namespace fremont

#endif  // SRC_EXPLORER_TRACEROUTE_H_
