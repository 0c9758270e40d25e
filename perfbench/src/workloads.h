// The benchmark's three workloads. A run repeats cycles of one workload: a
// fresh set-up at the run's seed, then a fixed amount of work, so every
// cycle of a run does identical work and a faster build does more cycles,
// never different ones.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/meter.h"
#include "perfbench/src/serving.h"
#include "perfbench/src/stats.h"
#include "src/journal/client.h"
#include "src/journal/server.h"
#include "src/manager/discovery_manager.h"
#include "src/sim/simulator.h"
#include "src/sim/topology.h"

namespace perfbench {

// What one cycle measured.
struct Cycle {
  double setup_s = 0.0;  // Until the first timed operation.
  double work_s = 0.0;   // Everything after set-up.
  double loop_s = 0.0;   // The workload's primary loop (day, sweeps or generations).
  double peak_rss_mb = 0.0;
  Tally tally;
  NanosHistogram view_reads;
};

struct CycleOptions {
  uint64_t seed = 1;
  std::string dir;  // Fresh, empty directory for this cycle's checkpoints.
};

// Serving generations per cycle. A run's p99s pool at least three cycles,
// 1500 samples with at least 15 beyond the p99; a longer phase also spreads
// each cycle's samples over more of the host's speed swings.
inline constexpr int kServingGenerations = 500;

// --- campus -----------------------------------------------------------------

// examples/campus_discovery's stack at one seed: the 111-subnet campus after
// 5 minutes of RIP convergence, the Journal Server checkpointing every 6 h,
// and all ten modules registered at their Table 4 intervals with
// auto-correlation on.
struct CampusStack {
  CampusStack(uint64_t seed, const std::string& checkpoint_path);

  fremont::Simulator sim;
  fremont::CampusParams params;
  fremont::Campus campus;
  PhaseClock clock;
  JournalMeter meter;
  fremont::JournalServer server;
  fremont::JournalClient journal;
  fremont::DiscoveryManager manager;
};

// Drives `span` of managed discovery exactly as DiscoveryManager::RunUntil
// does, unrolled into NextDue -> EventQueue::RunUntil -> BeginTick ->
// EventQueue::RunWhile(in_flight) -> EndTick so each phase is timed.
void RunCampusSpan(CampusStack& stack, fremont::Duration span, Tally& tally);

// FNV-1a 64 of Journal::EncodeAll, as 16 hex digits.
std::string JournalDigest(const fremont::JournalServer& server);

Cycle RunCampusCycle(const CycleOptions& options, Checks& checks, std::string* digest);

// --- sharded_sweep ----------------------------------------------------------

// The sharded campus (4 domains, 255 interfaces, traffic every 1 s on
// average) on `shards` shards driven by `workers` threads, one Discovery
// Manager per domain with all ten modules, after RIP convergence and one
// warm sweep.
struct ShardedStack {
  ShardedStack(uint64_t seed, int shards, int workers, const std::string& checkpoint_path);

  // One all-modules-due sweep through ParallelSweeper::Sweep (or, with one
  // shard, the same phases on the single queue). Returns modules launched.
  size_t Sweep(std::vector<fremont::ExplorerReport>* reports);

  fremont::Simulator sim;
  fremont::ShardedCampus campus;
  PhaseClock clock;
  JournalMeter meter;
  fremont::JournalServer server;
  std::vector<std::unique_ptr<fremont::JournalClient>> clients;
  std::vector<std::unique_ptr<fremont::DiscoveryManager>> managers;
};

Cycle RunShardedSweepCycle(const CycleOptions& options, Checks& checks);

// --- journal_serve ----------------------------------------------------------

// Pre-loads `subnets` department-density subnets (Table 5) of 30-40 hosts,
// plus one router per two subnets with two shared-MAC arms each, so
// correlation infers gateways.
void PreloadJournal(fremont::JournalClient& client, uint64_t seed, int subnets);

// journal_serve starts from a 100-subnet department. campus and
// sharded_sweep add a smaller top-up to the Journal they built before they
// serve: serving only the few hundred interfaces a simulated network yields
// takes well under a millisecond per operation, and those p99s followed the
// host's scheduling hiccups rather than Fremont. The top-up is small enough
// that three of their cycles fit in one run.
inline constexpr int kDepartmentSubnets = 100;
inline constexpr int kTopUpSubnets = 25;

Cycle RunJournalServeCycle(const CycleOptions& options, Checks& checks);

// The ten standard modules: registration key and report display name.
struct ModuleKey {
  const char* key;
  const char* display;
};
const std::vector<ModuleKey>& ModuleKeys();
// Adds per-module packets/records/new_info and replies for `reports`.
void TallyReports(const std::vector<fremont::ExplorerReport>& reports, Tally& tally);
// Σ frames/bytes/drops over every segment.
void TallySegments(const fremont::Simulator& sim, double sign, Tally& tally);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
