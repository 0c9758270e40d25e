#include "src/sim/arp_cache.h"

#include <algorithm>

namespace fremont {

size_t ArpCache::LowerBound(Ipv4Address ip) const {
  return static_cast<size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), ip,
                       [](const Entry& entry, Ipv4Address key) { return entry.ip < key; }) -
      entries_.begin());
}

void ArpCache::Update(Ipv4Address ip, MacAddress mac, SimTime now) {
  const size_t pos = LowerBound(ip);
  if (pos == entries_.size() || entries_[pos].ip != ip) {
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos), Entry{ip, mac, now, now});
    return;
  }
  // A changed MAC (duplicate IP in the wild, or swapped hardware) simply
  // overwrites — which is exactly why the ARP cache alone cannot detect the
  // problem and the Journal's long memory is needed.
  entries_[pos].mac = mac;
  entries_[pos].last_updated = now;
}

std::optional<MacAddress> ArpCache::Lookup(Ipv4Address ip, SimTime now) const {
  const size_t pos = LowerBound(ip);
  if (pos == entries_.size() || entries_[pos].ip != ip || Expired(entries_[pos], now)) {
    return std::nullopt;
  }
  return entries_[pos].mac;
}

std::vector<ArpCache::Entry> ArpCache::Snapshot(SimTime now) const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (!Expired(entry, now)) {
      out.push_back(entry);
    }
  }
  return out;
}

}  // namespace fremont
