#include "simsys/data_parallel.h"

#include <algorithm>

#include "common/logging.h"
#include "simsys/event_queue.h"
#include "simsys/link.h"

namespace gpuperf::simsys {

double RingAllReduceUs(std::int64_t bytes, const DataParallelConfig& config) {
  GP_CHECK_GE(bytes, 0);
  if (config.num_gpus <= 1 || bytes == 0) return 0.0;
  const double n = static_cast<double>(config.num_gpus);
  // Classic ring all-reduce: 2(N-1)/N of the data crosses each link,
  // in 2(N-1) latency-bound steps.
  const double volume_us = 2.0 * (n - 1.0) / n *
                           static_cast<double>(bytes) /
                           (config.link_bandwidth_gbps * 1e9) * 1e6;
  return volume_us + 2.0 * (n - 1.0) * config.link_latency_us;
}

DataParallelResult SimulateDataParallelStep(
    const std::vector<double>& forward_us,
    const std::vector<double>& backward_us,
    const std::vector<std::int64_t>& gradient_bytes,
    const DataParallelConfig& config) {
  GP_CHECK_EQ(forward_us.size(), backward_us.size());
  GP_CHECK_EQ(forward_us.size(), gradient_bytes.size());
  GP_CHECK_GT(config.num_gpus, 0);

  DataParallelResult result;
  for (std::size_t i = 0; i < forward_us.size(); ++i) {
    result.compute_us += forward_us[i] + backward_us[i];
    result.comm_us += RingAllReduceUs(gradient_bytes[i], config);
  }
  if (forward_us.empty()) return result;

  if (!config.overlap || config.num_gpus == 1) {
    // Communication fully exposed after the backward pass.
    result.step_time_us = result.compute_us + result.comm_us;
    result.exposed_comm_us = result.comm_us;
  } else {
    // Event-driven overlap: the backward pass walks layers in reverse;
    // each layer's gradient bucket enters the (serialized) fabric as soon
    // as its backward finishes. The effective all-reduce of a bucket is
    // modeled as one fabric transfer of its ring volume plus ring latency.
    EventQueue<> queue;
    // Fabric "link" carries the ring traffic of this replica.
    NetworkLink fabric(&queue, config.link_bandwidth_gbps,
                       2.0 * (config.num_gpus - 1) * config.link_latency_us);
    const double n = static_cast<double>(config.num_gpus);
    const double ring_factor = 2.0 * (n - 1.0) / n;

    double compute_end = 0;
    for (double f : forward_us) compute_end += f;
    double last_comm_end = 0;
    double backward_cursor = compute_end;
    queue.ScheduleAfter(0.0, [&] {
      // Walk backward layers in reverse, scheduling bucket transfers.
      for (int i = static_cast<int>(backward_us.size()) - 1; i >= 0; --i) {
        backward_cursor += backward_us[i];
        if (gradient_bytes[i] == 0) continue;
        const double ready_at = backward_cursor;
        const std::int64_t ring_bytes = static_cast<std::int64_t>(
            ring_factor * static_cast<double>(gradient_bytes[i]));
        queue.Schedule(ready_at, [&, ring_bytes] {
          fabric.Transfer(ring_bytes, [&] {
            last_comm_end = std::max(last_comm_end, queue.NowUs());
          });
        });
      }
    });
    queue.Run();
    result.step_time_us = std::max(backward_cursor, last_comm_end);
    result.exposed_comm_us =
        std::max(0.0, result.step_time_us - result.compute_us);
  }
  result.scaling_efficiency = result.compute_us / result.step_time_us;
  return result;
}

}  // namespace gpuperf::simsys
