#ifndef GPUPERF_SIMSYS_LINK_H_
#define GPUPERF_SIMSYS_LINK_H_

/**
 * @file
 * A serialized network link with bandwidth and latency — the model that
 * connects the GPU's local memory to the disaggregated memory pool in
 * case study 2.
 */

#include <cstdint>
#include <functional>

#include "simsys/event_queue.h"

namespace gpuperf::simsys {

/** A FIFO link: transfers queue behind each other at fixed bandwidth. */
class NetworkLink {
 public:
  /**
   * @param queue Owning event queue (must outlive the link).
   * @param bandwidth_gbps Link bandwidth in GB/s.
   * @param latency_us One-way latency added to every transfer.
   */
  NetworkLink(EventQueue<>* queue, double bandwidth_gbps, double latency_us);

  /** Enqueues a transfer; `on_complete` fires when the last byte lands. */
  void Transfer(std::int64_t bytes, std::function<void()> on_complete);

  /** Total bytes ever enqueued. */
  std::int64_t transferred_bytes() const { return transferred_bytes_; }

  /** Simulated time the link spent actively transferring. */
  double busy_us() const { return busy_us_; }

 private:
  EventQueue<>* queue_;
  double bandwidth_gbps_;
  double latency_us_;
  double free_at_us_ = 0;
  std::int64_t transferred_bytes_ = 0;
  double busy_us_ = 0;
};

}  // namespace gpuperf::simsys

#endif  // GPUPERF_SIMSYS_LINK_H_
