// ABL2 — producer batching over the WAN (design ablation).
//
// The paper's Kafka producers batch records before shipping; this
// ablation shows why that design matters on a high-latency link: sending
// N records as one batch pays one propagation delay instead of N.
#include <cstdio>

#include "broker/broker.h"
#include "broker/producer.h"
#include "common/logging.h"
#include "network/fabric.h"

int main() {
  using namespace pe;
  Logger::set_level(LogLevel::kError);
  Clock::set_time_scale(25.0);

  auto fabric = net::Fabric::make_paper_topology();
  constexpr std::size_t kRecords = 64;
  constexpr std::size_t kRecordBytes = 32 * 1000 * 8 / 100;  // ~2.56 KB

  std::printf(
      "ABL2: producer batching over the WAN (64 x 2.56 KB records, "
      "25x time scale; durations rescaled to emulated seconds)\n\n");
  std::printf("%-18s %12s %14s\n", "batch_size", "wall_s(emul)", "records/s");
  std::printf("%s\n", std::string(48, '-').c_str());

  for (std::size_t batch_size : {std::size_t{1}, std::size_t{4},
                                 std::size_t{16}, std::size_t{64}}) {
    auto broker_ptr = std::make_shared<broker::Broker>("lrz-eu");
    (void)broker_ptr->create_topic("t", broker::TopicConfig{.partitions = 1});
    broker::Producer producer(broker_ptr, fabric, "jetstream-us");

    Stopwatch sw;
    std::size_t sent = 0;
    while (sent < kRecords) {
      std::vector<broker::Record> batch;
      for (std::size_t i = 0; i < batch_size && sent + i < kRecords; ++i) {
        broker::Record r;
        r.key = "k";
        r.value = Bytes(kRecordBytes, 1);
        batch.push_back(std::move(r));
      }
      sent += batch.size();
      if (!producer.send_batch("t", 0, std::move(batch)).ok()) return 1;
    }
    const double emulated_s = sw.elapsed_seconds() * 25.0;
    std::printf("%-18zu %12.2f %14.1f\n", batch_size, emulated_s,
                static_cast<double>(kRecords) / emulated_s);
  }

  std::printf(
      "\nShape: throughput rises with batch size until the link's\n"
      "bandwidth (not its latency) becomes the limit.\n");
  Clock::set_time_scale(1.0);
  return 0;
}
