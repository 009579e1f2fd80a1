#include "telemetry/collector.h"

#include <algorithm>

namespace pe::tel {
namespace {

std::vector<MessageSpan> by_id(std::vector<MessageSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const MessageSpan& a, const MessageSpan& b) {
              return a.message_id < b.message_id;
            });
  return spans;
}

}  // namespace

void SpanCollector::on_produced(std::uint64_t message_id,
                                const std::string& producer_id,
                                std::uint32_t partition,
                                std::uint64_t payload_bytes,
                                std::uint64_t rows,
                                std::uint64_t produced_ns) {
  Stripe& stripe = stripe_of(message_id);
  MutexLock lock(stripe.mutex);
  MessageSpan& span = stripe.live[message_id];
  span.message_id = message_id;
  span.producer_id = producer_id;
  span.partition = partition;
  span.payload_bytes = payload_bytes;
  span.rows = rows;
  span.produced_ns = produced_ns;
}

void SpanCollector::on_edge_processed(std::uint64_t id, std::uint64_t ts) {
  update(id, [ts](MessageSpan& s) { s.edge_processed_ns = ts; });
}
void SpanCollector::on_sent(std::uint64_t id, std::uint64_t ts) {
  update(id, [ts](MessageSpan& s) { s.sent_ns = ts; });
}
void SpanCollector::on_broker(std::uint64_t id, std::uint64_t ts) {
  update(id, [ts](MessageSpan& s) { s.broker_ns = ts; });
}
void SpanCollector::on_consumed(std::uint64_t id, std::uint64_t ts) {
  update(id, [ts](MessageSpan& s) { s.consumed_ns = ts; });
}
void SpanCollector::on_process_start(std::uint64_t id, std::uint64_t ts) {
  update(id, [ts](MessageSpan& s) { s.process_start_ns = ts; });
}

void SpanCollector::on_process_end(std::uint64_t id, std::uint64_t ts) {
  Stripe& stripe = stripe_of(id);
  MutexLock lock(stripe.mutex);
  auto it = stripe.live.find(id);
  if (it == stripe.live.end()) return;
  MessageSpan& span = it->second;
  span.process_end_ns = ts;
  if (!span.complete()) return;  // produced with a zero stamp
  stripe.totals.add(span);
  latencies_.add(span);
  if (stripe.recent.size() < kRecentPerStripe) {
    stripe.recent.push_back(std::move(span));
  } else {
    stripe.recent[stripe.recent_next] = std::move(span);
  }
  stripe.recent_next = (stripe.recent_next + 1) % kRecentPerStripe;
  stripe.live.erase(it);
}

std::size_t SpanCollector::completed_count() const {
  std::size_t n = 0;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    n += stripe.totals.messages;
  }
  return n;
}

std::size_t SpanCollector::in_flight_count() const {
  std::size_t n = 0;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    n += stripe.live.size();
  }
  return n;
}

std::size_t SpanCollector::total_count() const {
  return completed_count() + in_flight_count();
}

std::vector<MessageSpan> SpanCollector::snapshot() const {
  std::vector<MessageSpan> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    for (const auto& [_, s] : stripe.live) out.push_back(s);
    out.insert(out.end(), stripe.recent.begin(), stripe.recent.end());
  }
  return by_id(std::move(out));
}

std::vector<MessageSpan> SpanCollector::completed() const {
  std::vector<MessageSpan> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    out.insert(out.end(), stripe.recent.begin(), stripe.recent.end());
  }
  return by_id(std::move(out));
}

RunReport SpanCollector::report(std::string label) const {
  SpanTotals totals;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    totals.merge(stripe.totals);
  }
  return make_report(totals, latencies_, std::move(label));
}

void SpanCollector::clear() {
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    stripe.live.clear();
    stripe.recent.clear();
    stripe.recent_next = 0;
    stripe.totals = SpanTotals{};
  }
  latencies_.clear();
}

}  // namespace pe::tel
