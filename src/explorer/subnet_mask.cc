#include "src/explorer/subnet_mask.h"

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"

namespace fremont {
namespace {
constexpr uint16_t kMaskIdent = 0x4d53;
}

SubnetMaskExplorer::SubnetMaskExplorer(Vantage vantage, JournalClient* journal,
                                       SubnetMaskParams params)
    : ExplorerModule("subnetmasks", "SubnetMasks", vantage, journal),
      params_(std::move(params)) {}

void SubnetMaskExplorer::StartImpl() {
  targets_ = params_.targets;
  if (targets_.empty()) {
    // Direct further discovery from the Journal: every interface we know of
    // that has no mask recorded yet.
    for (const auto& rec : journal()->GetInterfaces()) {
      if (!rec.mask.has_value()) {
        targets_.push_back(rec.ip);
      }
    }
  }
  // Skip targets the negative cache knows won't answer (yet).
  if (params_.negative_cache != nullptr) {
    std::vector<Ipv4Address> filtered;
    for (const Ipv4Address target : targets_) {
      if (params_.negative_cache->ShouldSkip(target.value(), vantage().Now())) {
        ++skipped_;
      } else {
        filtered.push_back(target);
      }
    }
    targets_ = std::move(filtered);
  }

  ListenIcmp([this](const Ipv4Packet& packet, const IcmpMessage& message) {
    if (message.type == IcmpType::kMaskReply && message.identifier == kMaskIdent) {
      replies_[packet.src.value()] = message.address_mask;
      ++mutable_report().replies_received;
    }
  });

  uint16_t seq = 0;
  for (const Ipv4Address target : targets_) {
    ScheduleGuarded(params_.interval * seq, [this, target, seq]() {
      SendIcmp(target, IcmpMessage::MaskRequest(kMaskIdent, seq));
    });
    ++seq;
  }
  ScheduleGuarded(params_.interval * seq + params_.reply_timeout, [this]() { Complete(); });
}

void SubnetMaskExplorer::Finish() {
  // Feed the negative cache: silence is a failure, any reply is a success.
  if (params_.negative_cache != nullptr) {
    for (const Ipv4Address target : targets_) {
      if (replies_.contains(target.value())) {
        params_.negative_cache->RecordSuccess(target.value());
      } else {
        params_.negative_cache->RecordFailure(target.value(), vantage().Now());
      }
    }
  }

  ExplorerReport& report = mutable_report();
  for (const auto& [ip, raw_mask] : replies_) {
    auto mask = SubnetMask::FromValue(raw_mask);
    if (!mask.has_value()) {
      continue;  // Non-contiguous mask: keep it out of the Journal.
    }
    InterfaceObservation obs;
    obs.ip = Ipv4Address(ip);
    obs.mask = *mask;
    writer().StoreInterface(obs, DiscoverySource::kSubnetMask);
    ++report.discovered;
  }
  uint64_t silent = 0;
  for (const Ipv4Address target : targets_) {
    if (!replies_.contains(target.value())) {
      ++silent;
    }
  }
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetCounter(telemetry::names::kSubnetMasksTimeouts)->Add(silent);
  registry.GetCounter(telemetry::names::kSubnetMasksNegativeCacheSkips)
      ->Add(static_cast<uint64_t>(skipped_ > 0 ? skipped_ : 0));
}

}  // namespace fremont
