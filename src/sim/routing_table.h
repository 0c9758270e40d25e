// Longest-prefix-match IPv4 routing table with distance-vector metrics.
//
// Routers hold one of these; it is seeded with connected routes by the
// topology builder and maintained at runtime by the RIP daemon (metric
// updates, route replacement, expiry of routes learned from a dead
// neighbour). Metric 16 is RIP infinity.
//
// Each destination has exactly one entry. Entries keep their insertion
// order (RIP advertises them in that order), and a flat hash index maps
// each destination to its position, so learning a route is one probe and a
// lookup is one probe per prefix length present.

#ifndef SRC_SIM_ROUTING_TABLE_H_
#define SRC_SIM_ROUTING_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/net/ipv4_address.h"
#include "src/net/rip.h"
#include "src/util/audit.h"
#include "src/util/sim_time.h"

namespace fremont {

struct Interface;

struct RouteEntry {
  Subnet destination;
  // Zero for directly connected subnets; otherwise the next-hop router IP.
  Ipv4Address gateway;
  Interface* out_iface = nullptr;
  uint32_t metric = 1;  // Hop count; connected routes have metric 1.
  bool connected = false;
  // When this route was last confirmed (RIP refresh); connected routes never
  // expire.
  SimTime last_refreshed;
};

class RoutingTable {
 public:
  RoutingTable() = default;

  // Installs the connected route for an attached subnet. A route already
  // learned for the same subnet is taken over in place.
  void AddConnected(Subnet subnet, Interface* iface);
  // Adds or replaces a learned route. Standard distance-vector acceptance:
  // better metric wins; same-gateway updates always apply (including getting
  // worse / poisoned).
  // Returns true if the table changed.
  bool Learn(Subnet subnet, Ipv4Address gateway, Interface* iface, uint32_t metric, SimTime now);

  // Longest-prefix match over routes below metric 16.
  std::optional<RouteEntry> Lookup(Ipv4Address dst) const;

  // Expires learned routes not refreshed within `max_age` (RIP uses 180 s).
  // Returns the number of routes expired.
  int ExpireStale(SimTime now, Duration max_age);

  const std::vector<RouteEntry>& entries() const { return entries_; }

  // Changes whenever what RIP advertises from this table may have changed:
  // a new entry, a metric, an out-interface, or an expiry. Refreshing a
  // route's age leaves it alone.
  uint64_t version() const { return version_; }

  std::string ToString() const;

 private:
  static constexpr size_t kNotFound = ~size_t{0};

  // Position of `destination` in entries_, or kNotFound.
  size_t Find(Subnet destination) const;
  void Append(const RouteEntry& entry);
  // Points the slot `destination` hashes to (or the next free one) at
  // `position`.
  void IndexAt(Subnet destination, size_t position);
#if FREMONT_AUDIT_ENABLED
  void AuditIndex() const;
#endif

  std::vector<RouteEntry> entries_;
  // Open-addressing hash index: each slot holds an entries_ position + 1, or
  // 0 when empty. The size is a power of two, kept at least twice the entry
  // count; entries are never removed, so probing needs no tombstones.
  std::vector<uint32_t> index_;
  // Bit n is set when some entry has prefix length n.
  uint64_t prefix_lengths_ = 0;
  uint64_t version_ = 0;
};

}  // namespace fremont

#endif  // SRC_SIM_ROUTING_TABLE_H_
