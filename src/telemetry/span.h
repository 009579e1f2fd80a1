// MessageSpan: the per-message record linking timestamps across components.
//
// The paper stresses that Pilot-Edge "captures and links comprehensive
// metrics across all involved components ... allowing easy identification
// of bottlenecks" (§III-1, used to spot that the broker outpaces the
// consumers at 4 partitions). A span carries one timestamp per pipeline
// stage, joined by the unique message id.
#pragma once

#include <cstdint>
#include <string>

namespace pe::tel {

struct MessageSpan {
  std::uint64_t message_id = 0;
  std::string producer_id;
  std::uint32_t partition = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t rows = 0;

  // Stage timestamps (Clock::now_ns); 0 = stage not reached.
  std::uint64_t produced_ns = 0;       // data generated on the edge
  std::uint64_t edge_processed_ns = 0; // edge processing done (hybrid mode)
  std::uint64_t sent_ns = 0;           // producer send acknowledged
  std::uint64_t broker_ns = 0;         // broker append
  std::uint64_t consumed_ns = 0;       // consumer received
  std::uint64_t process_start_ns = 0;  // cloud processing began
  std::uint64_t process_end_ns = 0;    // cloud processing finished

  bool complete() const { return produced_ns != 0 && process_end_ns != 0; }

  // --- derived stage latencies (0 if a stage is missing) ---
  static std::uint64_t ns_between(std::uint64_t a, std::uint64_t b) {
    return (a == 0 || b == 0 || b < a) ? 0 : b - a;
  }
  static double ms_between(std::uint64_t a, std::uint64_t b) {
    return to_ms(ns_between(a, b));
  }

  /// Produce -> processing done: the paper's end-to-end latency.
  std::uint64_t end_to_end_ns() const {
    return ns_between(produced_ns, process_end_ns);
  }
  /// Produce -> broker append (edge side + uplink).
  std::uint64_t ingress_ns() const {
    return ns_between(produced_ns, broker_ns);
  }
  /// Broker append -> consumer receipt (broker residency + downlink);
  /// grows when the processing side is the bottleneck.
  std::uint64_t broker_residency_ns() const {
    return ns_between(broker_ns, consumed_ns);
  }
  /// Consumer receipt -> processing start (consumer-side queueing).
  std::uint64_t consumer_queue_ns() const {
    return ns_between(consumed_ns, process_start_ns);
  }
  /// Pure model compute time.
  std::uint64_t processing_ns() const {
    return ns_between(process_start_ns, process_end_ns);
  }

  double end_to_end_ms() const { return to_ms(end_to_end_ns()); }
  double ingress_ms() const { return to_ms(ingress_ns()); }
  double broker_residency_ms() const { return to_ms(broker_residency_ns()); }
  double consumer_queue_ms() const { return to_ms(consumer_queue_ns()); }
  double processing_ms() const { return to_ms(processing_ns()); }

  static double to_ms(std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  }
};

}  // namespace pe::tel
