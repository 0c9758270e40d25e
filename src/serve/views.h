// Materialized query views for the serving layer.
//
// fremont_report recomputes each analysis per invocation; fremont_serve
// computes them once per Journal generation bump and serves the rendered
// result to every subscriber. A ViewSnapshot is the immutable product of one
// such build: three rendered views (problems, interfaces-by-subnet,
// characteristics) over one consistent record snapshot, stamped with the
// generation they are current to. Snapshots are built off-line and published
// by swapping a shared_ptr (see ServeService), so readers never touch the
// analysis path.
//
// The renderers are pure functions of (records, now) — fremont_report's
// `problems` command and the problems view both go through RenderProblems,
// which is what keeps the two byte-identical.

#ifndef SRC_SERVE_VIEWS_H_
#define SRC_SERVE_VIEWS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/journal/records.h"

namespace fremont::serve {

// The materialized views the serving layer keeps warm. Values index
// ViewSnapshot arrays; bits (1 << value) form the wire view_mask.
enum class ViewKind : uint8_t {
  kProblems = 0,            // The five problem analyses, rendered.
  kInterfacesBySubnet = 1,  // Level-2 interface browser, every subnet.
  kCharacteristics = 2,     // Stats + utilization + vendor inventory.
};
inline constexpr int kViewCount = 3;
inline constexpr uint16_t kAllViewsMask = (1u << kViewCount) - 1;

inline uint16_t ViewBit(ViewKind kind) {
  return static_cast<uint16_t>(1u << static_cast<uint8_t>(kind));
}

// Stable lowercase name for telemetry keys ("serve/query_latency_us/problems").
const char* ViewKindName(ViewKind kind);

struct ViewSnapshot {
  // Journal generation the underlying record snapshot was current to.
  uint64_t generation = 0;
  // Sim time the views were rendered at (staleness analyses depend on it).
  SimTime built_at;
  // Rendered views, indexed by ViewKind.
  std::array<std::string, kViewCount> text;
  // Problem findings count (the problems view's bottom line).
  int problem_findings = 0;
  // Per view: the generation at which its rendered text last changed.
  // Content-based invalidation — a generation bump that leaves a view's
  // bytes identical does not advance this, so subscribers of only that view
  // are not pushed. Stamped by ServeService when it publishes the snapshot.
  std::array<uint64_t, kViewCount> changed_generation{};

  const std::string& view(ViewKind kind) const {
    return text[static_cast<size_t>(kind)];
  }
  // Bits of the views whose content changed after `cursor` — what a push to
  // a subscriber at that cursor must carry.
  uint16_t ChangedMaskSince(uint64_t cursor) const;
  // Canonical serialization of the whole snapshot (generation + every view),
  // the unit of the warm-vs-cold byte-identity property test.
  std::string Serialize() const;
};

struct ProblemsRender {
  std::string text;
  int findings = 0;
};

// The five problem analyses exactly as fremont_report's `problems` command
// prints them (sections + trailing "N finding(s)." line).
ProblemsRender RenderProblems(const std::vector<InterfaceRecord>& interfaces,
                              const std::vector<GatewayRecord>& gateways, SimTime now);

// Level-2 interface browser for every subnet record, in canonical subnet
// order, each under a "=== <subnet> ===" header.
std::string RenderInterfacesBySubnet(const std::vector<InterfaceRecord>& interfaces,
                                     const std::vector<SubnetRecord>& subnets, SimTime now);

// Network characteristics summary: record counts, per-subnet utilization
// (with the crowded-subnet line), and the vendor inventory.
std::string RenderCharacteristics(const std::vector<InterfaceRecord>& interfaces,
                                  const std::vector<GatewayRecord>& gateways,
                                  const std::vector<SubnetRecord>& subnets, SimTime now);

// Builds all three views from one consistent record snapshot. Does not stamp
// changed_generation — the publisher owns that (it needs the prior snapshot).
ViewSnapshot BuildViewSnapshot(const std::vector<InterfaceRecord>& interfaces,
                               const std::vector<GatewayRecord>& gateways,
                               const std::vector<SubnetRecord>& subnets, SimTime now,
                               uint64_t generation);

}  // namespace fremont::serve

#endif  // SRC_SERVE_VIEWS_H_
