// The serving phase every workload ends its cycle with: Fremont's analysis
// and serving side over the Journal the cycle built.
//
// Per generation, in order: one JournalBatchWriter flushes 64 observations
// (verify-only re-stores, DNS renames, one new host); CorrelationState::Update
// folds them in; ServeService::Refresh publishes the views and pushes to 100
// subscribers; a cold `fremont_report problems` query runs (fresh client,
// GetInterfaces + GetGateways, serve::RenderProblems); and one
// ReplicationPeer::Pull copies into a second JournalServer. A reader thread
// reads views back to back for the whole phase. The primary server's clock
// steps one synthetic minute per generation.

#ifndef PERFBENCH_SRC_SERVING_H_
#define PERFBENCH_SRC_SERVING_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/meter.h"
#include "perfbench/src/stats.h"
#include "src/journal/server.h"
#include "src/sim/simulator.h"

namespace perfbench {

// Failed output checks of one run, by description.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

// The clock a workload's Journal Server and serving layer read: the
// simulator's while it drives discovery, then a synthetic clock the serving
// phase sets. Set() only while no other thread reads the clock.
class PhaseClock {
 public:
  explicit PhaseClock(fremont::Simulator* sim = nullptr) : sim_(sim) {}
  fremont::SimTime Now() const {
    if (fixed_.has_value()) {
      return *fixed_;
    }
    return sim_ != nullptr ? sim_->Now() : fremont::SimTime::Epoch();
  }
  void Set(fremont::SimTime now) { fixed_ = now; }

 private:
  fremont::Simulator* sim_;
  std::optional<fremont::SimTime> fixed_;
};

struct ServingTimes {
  double startup_s = 0.0;  // Services, subscribers, first refresh and pull.
  double loop_s = 0.0;     // The generation loop.
};

// Runs `generations` serving generations over `primary` (whose clock is
// `clock`), adding timings and counts to `tally` and reader latencies to
// `view_reads`.
ServingTimes RunServingPhase(fremont::JournalServer& primary, PhaseClock& clock, JournalMeter& meter,
                       uint64_t seed, int generations, Tally& tally,
                       NanosHistogram& view_reads, Checks& checks);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVING_H_
