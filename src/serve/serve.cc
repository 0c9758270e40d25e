#include "src/serve/serve.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/telemetry/metrics.h"
#include "src/telemetry/names.h"
#include "src/telemetry/span.h"
#include "src/util/string_util.h"

namespace fremont::serve {

namespace {

telemetry::Histogram* QueryLatencyHistogram(ViewKind kind) {
  // One histogram per view; resolved once and cached (registry lookups take
  // the registry mutex, which would otherwise be the read path's only lock).
  // Racing resolutions are benign — the registry hands back one stable
  // pointer per name — so relaxed atomics suffice.
  static std::atomic<telemetry::Histogram*> histograms[kViewCount] = {};
  auto& slot = histograms[static_cast<size_t>(kind)];
  telemetry::Histogram* h = slot.load(std::memory_order_relaxed);
  if (h == nullptr) {
    h = telemetry::MetricsRegistry::Global().GetHistogram(
        std::string(telemetry::names::kServeQueryLatencyUsPrefix) + ViewKindName(kind),
        telemetry::DurationBucketsMicros());
    slot.store(h, std::memory_order_relaxed);
  }
  return h;
}

}  // namespace

ServeService::ServeService(JournalServer* server, Clock clock, ServeOptions options)
    : server_(server),
      clock_(std::move(clock)),
      options_(options),
      client_(std::make_unique<JournalClient>(server)),
      correlation_(options.assumed_prefix) {
  server_->set_subscription_broker(this);
}

ServeService::~ServeService() { server_->set_subscription_broker(nullptr); }

uint32_t ServeService::RegisterChannel(PushFn push) {
  const MutexLock lock(sub_mu_);
  const uint32_t id = next_channel_id_++;
  channels_.emplace(id, std::move(push));
  return id;
}

void ServeService::UnregisterChannel(uint32_t channel_id) {
  const MutexLock lock(sub_mu_);
  channels_.erase(channel_id);
  if (subscriptions_.erase(channel_id) > 0) {
    telemetry::MetricsRegistry::Global()
        .GetGauge(telemetry::names::kServeSubscribers)
        ->Set(static_cast<int64_t>(subscriptions_.size()));
  }
}

JournalResponse ServeService::HandleSubscribe(const JournalRequest& request) {
  JournalResponse resp;
  if (request.view_mask == 0 || (request.view_mask & ~kAllViewsMask) != 0) {
    resp.status = ResponseStatus::kMalformedRequest;
    return resp;
  }
  const MutexLock lock(sub_mu_);
  const auto channel = channels_.find(request.subscriber_id);
  if (channel == channels_.end()) {
    resp.status = ResponseStatus::kNotFound;
    return resp;
  }
  Subscription& sub = subscriptions_[channel->first];
  sub.id = channel->first;
  sub.mask = request.view_mask;
  sub.cursor = request.since_generation;
  sub.push = channel->second;
  telemetry::MetricsRegistry::Global()
      .GetGauge(telemetry::names::kServeSubscribers)
      ->Set(static_cast<int64_t>(subscriptions_.size()));
  resp.status = ResponseStatus::kOk;
  resp.record_id = sub.id;
  return resp;
}

JournalResponse ServeService::HandleUnsubscribe(const JournalRequest& request) {
  JournalResponse resp;
  const MutexLock lock(sub_mu_);
  if (subscriptions_.erase(request.subscriber_id) == 0) {
    resp.status = ResponseStatus::kNotFound;
    return resp;
  }
  telemetry::MetricsRegistry::Global()
      .GetGauge(telemetry::names::kServeSubscribers)
      ->Set(static_cast<int64_t>(subscriptions_.size()));
  resp.status = ResponseStatus::kOk;
  resp.record_id = request.subscriber_id;
  return resp;
}

void ServeService::PublishSnapshot(uint64_t generation) {
  const std::shared_ptr<const ViewSnapshot> old = snapshot();
  auto next = std::make_shared<ViewSnapshot>(
      BuildViewSnapshot(mirror_.interfaces().records(), mirror_.gateways().records(),
                        mirror_.subnets().records(), clock_(), generation));
  // Content-based invalidation: a view whose bytes did not move keeps its
  // old change generation, so subscribers current past it are not pushed.
  for (int i = 0; i < kViewCount; ++i) {
    const auto idx = static_cast<size_t>(i);
    if (old != nullptr && old->text[idx] == next->text[idx]) {
      next->changed_generation[idx] = old->changed_generation[idx];
    } else {
      next->changed_generation[idx] = generation;
    }
  }
  snapshot_.store(std::shared_ptr<const ViewSnapshot>(std::move(next)),
                  std::memory_order_release);
  telemetry::MetricsRegistry::Global()
      .GetCounter(telemetry::names::kServeViewRefreshes)
      ->Increment();
}

ServeService::RefreshResult ServeService::Refresh() {
  const MutexLock lock(refresh_mu_);
  auto& metrics = telemetry::MetricsRegistry::Global();
  const SimTime now = clock_();
  telemetry::Span span(telemetry::names::kSpanServeRefresh, now, telemetry::Tracer::Global());

  // 1. Sync the mirror. Correlation syncs its interface and subnet tables,
  //    both before and after it writes inferred gateways, so the gateway
  //    sync after it picks those writes up in the same pass. Each table may
  //    come back current to a different generation if a writer races
  //    between the reads; the views are current to the minimum.
  if (options_.run_correlation) {
    correlation_.Update(*client_, mirror_, now);
    mirror_.gateways().Sync(*client_);
  } else {
    mirror_.Sync(*client_);
  }
  const uint64_t generation = mirror_.generation();

  // 2. Rebuild off-line and swap only when something actually changed.
  RefreshResult result;
  const std::shared_ptr<const ViewSnapshot> published = snapshot();
  if (published == nullptr || published->generation != generation) {
    PublishSnapshot(generation);
    result.views_rebuilt = true;
  }
  result.generation = generation;

  // 3. Fan out. The subscriber list is copied out so no service lock is
  //    held across a push callback (which may call back into the server).
  const std::shared_ptr<const ViewSnapshot> snap = snapshot();
  std::vector<Subscription> targets;
  {
    const MutexLock sub_lock(sub_mu_);
    targets.reserve(subscriptions_.size());
    for (const auto& [id, sub] : subscriptions_) {
      if ((snap->ChangedMaskSince(sub.cursor) & sub.mask) != 0) {
        targets.push_back(sub);
      }
    }
  }
  std::vector<uint32_t> delivered;
  std::vector<uint32_t> dead;
  ByteWriter frame;
  for (const Subscription& sub : targets) {
    JournalRequest push;
    push.type = RequestType::kPushUpdate;
    push.subscriber_id = sub.id;
    push.view_mask = static_cast<uint16_t>(snap->ChangedMaskSince(sub.cursor) & sub.mask);
    push.since_generation = snap->generation;
    frame.Clear();
    push.EncodeTo(frame);
    const ByteBuffer bytes = frame.TakeBuffer();
    if (sub.push(bytes)) {
      delivered.push_back(sub.id);
      ++result.pushes;
      metrics.GetCounter(telemetry::names::kServePushes)->Increment();
      metrics.GetCounter(telemetry::names::kServePushBytes)
          ->Add(static_cast<int64_t>(bytes.size()));
      if (!result.views_rebuilt) {
        // Nothing new this pass — the subscriber was simply behind (fresh or
        // re-subscribed), and this push caught it up.
        metrics.GetCounter(telemetry::names::kServeCatchupPushes)->Increment();
      }
    } else {
      dead.push_back(sub.id);
    }
  }
  if (!delivered.empty() || !dead.empty()) {
    const MutexLock sub_lock(sub_mu_);
    for (uint32_t id : delivered) {
      auto it = subscriptions_.find(id);
      if (it != subscriptions_.end()) {
        it->second.cursor = std::max(it->second.cursor, snap->generation);
      }
    }
    for (uint32_t id : dead) {
      if (subscriptions_.erase(id) > 0) {
        ++result.dropped;
        metrics.GetCounter(telemetry::names::kServeDroppedSubscribers)->Increment();
      }
    }
    metrics.GetGauge(telemetry::names::kServeSubscribers)
        ->Set(static_cast<int64_t>(subscriptions_.size()));
  }

  span.End(telemetry::TraceEventKind::kServeRefresh, clock_(),
           StringPrintf("generation=%llu pushes=%d",
                        static_cast<unsigned long long>(result.generation), result.pushes));
  metrics
      .GetHistogram(telemetry::names::kServeRefreshLatencyUs,
                    telemetry::DurationBucketsMicros())
      ->Observe(span.duration_us());
  return result;
}

std::shared_ptr<const ViewSnapshot> ServeService::ReadView(ViewKind kind) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const ViewSnapshot> snap = snapshot();
  // Touch the view so the observation covers what a renderer would pay.
  const size_t bytes = snap != nullptr ? snap->view(kind).size() : 0;
  (void)bytes;
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  QueryLatencyHistogram(kind)->Observe(static_cast<int64_t>(elapsed));
  return snap;
}

size_t ServeService::subscriber_count() const {
  const MutexLock lock(sub_mu_);
  return subscriptions_.size();
}

ServeSubscriber::ServeSubscriber(ServeService* service, JournalClient* client)
    : service_(service), client_(client) {
  channel_id_ =
      service_->RegisterChannel([this](const ByteBuffer& frame) { return OnPush(frame); });
}

ServeSubscriber::~ServeSubscriber() { service_->UnregisterChannel(channel_id_); }

bool ServeSubscriber::Subscribe(uint16_t mask, uint64_t since_generation) {
  const JournalClient::SubscribeResult result =
      client_->Subscribe(channel_id_, mask, since_generation);
  if (!result.ok) {
    return false;
  }
  subscriber_id_ = result.subscriber_id;
  subscribed_ = true;
  return true;
}

bool ServeSubscriber::Resubscribe(uint16_t mask) { return Subscribe(mask, cursor()); }

bool ServeSubscriber::Unsubscribe() {
  if (!subscribed_) {
    return false;
  }
  subscribed_ = false;
  return client_->Unsubscribe(subscriber_id_);
}

bool ServeSubscriber::OnPush(const ByteBuffer& frame) {
  if (!connected_.load(std::memory_order_acquire)) {
    return false;  // The peer hung up; the service drops this subscription.
  }
  const std::optional<JournalRequest> update = JournalRequest::Decode(frame);
  if (!update.has_value() || update->type != RequestType::kPushUpdate) {
    return false;
  }
  cursor_.store(update->since_generation, std::memory_order_release);
  last_push_mask_.store(update->view_mask, std::memory_order_release);
  pushes_received_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

}  // namespace fremont::serve
