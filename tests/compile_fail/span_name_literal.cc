// Must not compile: telemetry::Span takes a SpanName, and a string literal
// does not convert to one.

#include "src/telemetry/span.h"

namespace fremont {

void OpenAdHocSpan() {
  telemetry::Span span("ad_hoc_span", SimTime());
}

}  // namespace fremont
