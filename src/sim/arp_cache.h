// Per-host ARP cache with entry timeout.
//
// The paper's duplicate-address detection hinges on the fact that a plain
// ARP cache forgets mappings after "the usual timeout" while Fremont's
// Journal remembers them indefinitely. The EtherHostProbe Explorer Module
// reads this cache on its own host after provoking ARP traffic.

#ifndef SRC_SIM_ARP_CACHE_H_
#define SRC_SIM_ARP_CACHE_H_

#include <optional>
#include <vector>

#include "src/net/ipv4_address.h"
#include "src/net/mac_address.h"
#include "src/util/sim_time.h"

namespace fremont {

class ArpCache {
 public:
  struct Entry {
    Ipv4Address ip;
    MacAddress mac;
    SimTime inserted;
    SimTime last_updated;
  };

  // SunOS-era default complete-entry timeout was on the order of 20 minutes.
  explicit ArpCache(Duration timeout = Duration::Minutes(20)) : timeout_(timeout) {}

  // Inserts or refreshes a mapping.
  void Update(Ipv4Address ip, MacAddress mac, SimTime now);

  // Returns the MAC for `ip` if present and not expired.
  std::optional<MacAddress> Lookup(Ipv4Address ip, SimTime now) const;

  bool Contains(Ipv4Address ip, SimTime now) const { return Lookup(ip, now).has_value(); }

  // Drops expired entries and returns the live table in ascending-IP order —
  // what `arp -a` would print; EtherHostProbe reads this.
  std::vector<Entry> Snapshot(SimTime now) const;

  void Clear() { entries_.clear(); }
  size_t RawSize() const { return entries_.size(); }

 private:
  bool Expired(const Entry& entry, SimTime now) const {
    return now - entry.last_updated > timeout_;
  }
  // Position of the first entry whose IP is not below `ip`.
  size_t LowerBound(Ipv4Address ip) const;

  Duration timeout_;
  // Sorted by IP: a cache holds only its host's on-link neighbours, so a
  // binary search over one contiguous array beats a hash probe, and an
  // insert's shift is paid once per new neighbour.
  std::vector<Entry> entries_;
};

}  // namespace fremont

#endif  // SRC_SIM_ARP_CACHE_H_
