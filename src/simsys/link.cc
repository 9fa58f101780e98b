#include "simsys/link.h"

#include <algorithm>

#include "common/logging.h"

namespace gpuperf::simsys {

NetworkLink::NetworkLink(EventQueue<>* queue, double bandwidth_gbps,
                         double latency_us)
    : queue_(queue), bandwidth_gbps_(bandwidth_gbps),
      latency_us_(latency_us) {
  GP_CHECK(queue != nullptr);
  GP_CHECK_GT(bandwidth_gbps, 0.0);
  GP_CHECK_GE(latency_us, 0.0);
}

void NetworkLink::Transfer(std::int64_t bytes,
                           std::function<void()> on_complete) {
  GP_CHECK_GE(bytes, 0);
  // Bandwidth occupancy serializes transfers; latency pipelines.
  const double occupancy_us =
      static_cast<double>(bytes) / (bandwidth_gbps_ * 1e9) * 1e6;
  const double start = std::max(queue_->NowUs(), free_at_us_);
  free_at_us_ = start + occupancy_us;
  busy_us_ += occupancy_us;
  transferred_bytes_ += bytes;
  queue_->Schedule(free_at_us_ + latency_us_, std::move(on_complete));
}

}  // namespace gpuperf::simsys
