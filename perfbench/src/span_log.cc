#include "perfbench/src/span_log.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanLog& SpanLog::Global() {
  static SpanLog log;
  return log;
}

SpanLog::ThreadBuffer& SpanLog::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return *local;
}

uint64_t SpanLog::Begin(const char* name) {
  if (!enabled()) {
    return 0;
  }
  ThreadBuffer& buffer = Local();
  SpanRecord span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty() ? remote_parent_.load(std::memory_order_acquire)
                                    : buffer.spans[buffer.open.back()].id;
  span.thread = buffer.thread;
  span.trace = trace_.load(std::memory_order_relaxed);
  span.start_ns = NowNs();
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(span);
  return span.id;
}

void SpanLog::End(uint64_t id) {
  const int64_t now = NowNs();
  ThreadBuffer& buffer = Local();
  if (buffer.open.empty() || buffer.spans[buffer.open.back()].id != id) {
    return;  // Opened before a Clear(); nothing left to close.
  }
  buffer.spans[buffer.open.back()].end_ns = now;
  buffer.open.pop_back();
}

std::vector<SpanRecord> SpanLog::Collect() const {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const bool still_open =
          std::find(buffer->open.begin(), buffer->open.end(), i) != buffer->open.end();
      if (!still_open) {
        out.push_back(buffer->spans[i]);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

void SpanLog::Clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  // Children's intervals, clipped to their parent's.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const SpanRecord& child : spans) {
    const auto it = index.find(child.parent);
    if (child.parent == 0 || it == index.end()) {
      continue;
    }
    const SpanRecord& parent = spans[it->second];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) {
      covered[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool in_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) {
        union_ns += run_hi - run_lo;
      }
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) {
      union_ns += run_hi - run_lo;
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - union_ns) * 1e-9;
  }
  return self;
}

std::string LayerOf(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench
