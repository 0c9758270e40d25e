#include "src/sim/routing_table.h"

#include <algorithm>
#include <bit>

#include "src/net/mac_address.h"
#include "src/sim/segment.h"
#include "src/util/string_util.h"

namespace fremont {
namespace {

// Murmur3's 64-bit finalizer over (network, mask): every input bit reaches
// every slot bit, so destinations that differ only in their network bits
// (every /24 of one campus) still spread across the index.
size_t HashDestination(Subnet destination) {
  uint64_t k = static_cast<uint64_t>(destination.network().value()) << 32 |
               destination.mask().value();
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return static_cast<size_t>(k);
}

}  // namespace

size_t RoutingTable::Find(Subnet destination) const {
  if (index_.empty()) {
    return kNotFound;
  }
  const size_t wrap = index_.size() - 1;
  for (size_t slot = HashDestination(destination) & wrap;; slot = (slot + 1) & wrap) {
    const uint32_t held = index_[slot];
    if (held == 0) {
      return kNotFound;
    }
    if (entries_[held - 1].destination == destination) {
      return held - 1;
    }
  }
}

void RoutingTable::IndexAt(Subnet destination, size_t position) {
  const size_t wrap = index_.size() - 1;
  size_t slot = HashDestination(destination) & wrap;
  while (index_[slot] != 0) {
    slot = (slot + 1) & wrap;
  }
  index_[slot] = static_cast<uint32_t>(position + 1);
}

void RoutingTable::Append(const RouteEntry& entry) {
  entries_.push_back(entry);
  prefix_lengths_ |= uint64_t{1} << entry.destination.mask().PrefixLength();
  if (entries_.size() * 2 > index_.size()) {
    index_.assign(std::max<size_t>(16, index_.size() * 2), 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      IndexAt(entries_[i].destination, i);
    }
  } else {
    IndexAt(entry.destination, entries_.size() - 1);
  }
}

void RoutingTable::AddConnected(Subnet subnet, Interface* iface) {
  RouteEntry connected;
  connected.destination = subnet;
  connected.out_iface = iface;
  connected.metric = 1;
  connected.connected = true;
  if (const size_t pos = Find(subnet); pos == kNotFound) {
    Append(connected);
  } else {
    // An attached subnet always routes direct: whatever was learned for it
    // gives way here, keeping its place in the advertisement order.
    entries_[pos] = connected;
  }
  ++version_;
#if FREMONT_AUDIT_ENABLED
  AuditIndex();
#endif
}

bool RoutingTable::Learn(Subnet subnet, Ipv4Address gateway, Interface* iface, uint32_t metric,
                         SimTime now) {
  metric = std::min<uint32_t>(metric, kRipMetricInfinity);
  bool changed = false;
  if (const size_t pos = Find(subnet); pos == kNotFound) {
    if (metric >= kRipMetricInfinity) {
      return false;  // Don't install unreachable routes.
    }
    RouteEntry entry;
    entry.destination = subnet;
    entry.gateway = gateway;
    entry.out_iface = iface;
    entry.metric = metric;
    entry.connected = false;
    entry.last_refreshed = now;
    Append(entry);
    changed = true;
  } else {
    RouteEntry& entry = entries_[pos];
    if (entry.connected) {
      return false;  // Connected routes are never displaced.
    }
    if (entry.gateway == gateway) {
      // Same source: always take the update (even if worse), refresh age.
      changed = entry.metric != metric || entry.out_iface != iface;
      entry.metric = metric;
      entry.out_iface = iface;
      entry.last_refreshed = now;
    } else if (metric < entry.metric) {
      entry.gateway = gateway;
      entry.out_iface = iface;
      entry.metric = metric;
      entry.last_refreshed = now;
      changed = true;
    }
  }
  if (changed) {
    ++version_;
  }
#if FREMONT_AUDIT_ENABLED
  AuditIndex();
#endif
  return changed;
}

std::optional<RouteEntry> RoutingTable::Lookup(Ipv4Address dst) const {
  // Within one prefix length at most one destination contains `dst`, so the
  // first reachable hit, longest prefix first, is the match.
  for (uint64_t lengths = prefix_lengths_; lengths != 0;) {
    const int length = 63 - std::countl_zero(lengths);
    lengths &= ~(uint64_t{1} << length);
    const size_t pos = Find(Subnet(dst, SubnetMask::FromPrefixLength(length)));
    if (pos != kNotFound && entries_[pos].metric < kRipMetricInfinity) {
      return entries_[pos];
    }
  }
  return std::nullopt;
}

int RoutingTable::ExpireStale(SimTime now, Duration max_age) {
  int expired = 0;
  for (auto& entry : entries_) {
    if (!entry.connected && entry.metric < kRipMetricInfinity &&
        now - entry.last_refreshed > max_age) {
      entry.metric = kRipMetricInfinity;
      ++expired;
    }
  }
  if (expired > 0) {
    ++version_;
  }
#if FREMONT_AUDIT_ENABLED
  AuditIndex();
#endif
  return expired;
}

#if FREMONT_AUDIT_ENABLED
// FREMONT_AUDIT=ON: the index maps every destination to the one position a
// linear scan of entries_ finds and holds nothing else, and the prefix-length
// set is exactly the lengths present. Find(d) == i for every entry i rules
// out a duplicate destination (two entries cannot both be what d maps to).
void RoutingTable::AuditIndex() const {
  uint64_t lengths = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Subnet& destination = entries_[i].destination;
    FREMONT_AUDIT_CHECK(Find(destination) == i,
                        StringPrintf("route index maps %s away from its entry %zu",
                                     destination.ToString().c_str(), i));
    lengths |= uint64_t{1} << destination.mask().PrefixLength();
  }
  const size_t occupied =
      static_cast<size_t>(std::count_if(index_.begin(), index_.end(), [](uint32_t held) {
        return held != 0;
      }));
  FREMONT_AUDIT_CHECK(occupied == entries_.size(),
                      StringPrintf("route index holds %zu slots for %zu entries", occupied,
                                   entries_.size()));
  FREMONT_AUDIT_CHECK(lengths == prefix_lengths_,
                      StringPrintf("route prefix lengths %llx, entries have %llx",
                                   static_cast<unsigned long long>(prefix_lengths_),
                                   static_cast<unsigned long long>(lengths)));
}
#endif  // FREMONT_AUDIT_ENABLED

std::string RoutingTable::ToString() const {
  std::string out;
  for (const auto& entry : entries_) {
    out += StringPrintf("%-18s via %-15s metric %2u%s\n", entry.destination.ToString().c_str(),
                        entry.connected ? "direct" : entry.gateway.ToString().c_str(),
                        entry.metric, entry.connected ? " (connected)" : "");
  }
  return out;
}

}  // namespace fremont
