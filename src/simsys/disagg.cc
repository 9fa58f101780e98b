#include "simsys/disagg.h"

#include "common/logging.h"
#include "simsys/event_queue.h"
#include "simsys/link.h"

namespace gpuperf::simsys {
namespace {

/** Shared mutable state of the prefetcher/compute co-simulation. */
struct SimState {
  EventQueue<> queue;
  NetworkLink link;
  const std::vector<double>& compute_us;
  const std::vector<std::int64_t>& weight_bytes;
  const DisaggConfig& config;

  std::vector<bool> arrived;
  std::size_t next_fetch = 0;    // next layer whose weights to request
  std::size_t compute_layer = 0; // next layer to execute
  bool computing = false;
  double finish_time = 0;
  double busy_us = 0;

  SimState(const std::vector<double>& compute,
           const std::vector<std::int64_t>& weights,
           const DisaggConfig& cfg)
      : link(&queue, cfg.link_bandwidth_gbps, cfg.link_latency_us),
        compute_us(compute), weight_bytes(weights), config(cfg),
        arrived(compute.size(), false) {}

  /** Issues prefetches up to the look-ahead window. */
  void PumpPrefetch() {
    while (next_fetch < compute_us.size() &&
           next_fetch < compute_layer + config.prefetch_window) {
      const std::size_t layer = next_fetch++;
      if (weight_bytes[layer] == 0) {
        arrived[layer] = true;
        continue;
      }
      link.Transfer(weight_bytes[layer], [this, layer] {
        arrived[layer] = true;
        MaybeStartCompute();
      });
    }
  }

  /** Starts the next layer if its weights are resident. */
  void MaybeStartCompute() {
    if (computing || compute_layer >= compute_us.size()) return;
    if (!arrived[compute_layer]) return;
    computing = true;
    const std::size_t layer = compute_layer;
    busy_us += compute_us[layer];
    queue.ScheduleAfter(compute_us[layer], [this, layer] {
      computing = false;
      compute_layer = layer + 1;
      finish_time = queue.NowUs();
      PumpPrefetch();
      MaybeStartCompute();
    });
  }
};

}  // namespace

DisaggResult SimulateDisaggregated(
    const std::vector<double>& layer_compute_us,
    const std::vector<std::int64_t>& layer_weight_bytes,
    const DisaggConfig& config) {
  GP_CHECK_EQ(layer_compute_us.size(), layer_weight_bytes.size());
  GP_CHECK_GT(config.prefetch_window, 0);
  DisaggResult result;
  if (layer_compute_us.empty()) return result;

  SimState state(layer_compute_us, layer_weight_bytes, config);
  state.queue.ScheduleAfter(0.0, [&state] {
    state.PumpPrefetch();
    state.MaybeStartCompute();
  });
  state.queue.Run();

  GP_CHECK_EQ(state.compute_layer, layer_compute_us.size())
      << "simulation deadlocked";
  result.total_time_us = state.finish_time;
  result.compute_us = state.busy_us;
  result.stall_us = state.finish_time - state.busy_us;
  result.events = state.queue.fired_count();
  return result;
}

}  // namespace gpuperf::simsys
