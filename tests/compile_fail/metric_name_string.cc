// Must not compile: the registry takes a MetricName, and a std::string
// matches no overload of any getter.

#include <string>

#include "src/telemetry/metrics.h"

namespace fremont {

void RegisterComposedInstruments(const std::string& key) {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetCounter(key + "/count");
  registry.GetGauge(key + "/level");
  registry.GetHistogram(key + "/latency", {1, 10});
}

}  // namespace fremont
