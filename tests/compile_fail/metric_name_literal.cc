// Must not compile: the registry takes a MetricName, and a string literal
// selects the deleted overload of each getter.

#include "src/telemetry/metrics.h"

namespace fremont {

void RegisterAdHocInstruments() {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetCounter("ad_hoc/count");
  registry.GetGauge("ad_hoc/level");
  registry.GetHistogram("ad_hoc/latency", {1, 10});
}

}  // namespace fremont
