#include "dataset/builder.h"

#include <cstddef>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dnn/flops.h"
#include "dnn/memory.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/profiler.h"

namespace gpuperf::dataset {
namespace {

/** One (gpu, network) combo that survives the OOM filter. */
struct WorkItem {
  std::size_t gpu_index;
  std::size_t network_index;
};

}  // namespace

void AppendProfiles(const std::vector<dnn::Network>& networks,
                    const BuildOptions& options, Dataset* dataset) {
  GP_CHECK(dataset != nullptr);
  std::vector<gpuexec::GpuSpec> gpus;
  if (options.gpu_names.empty()) {
    gpus = gpuexec::AllGpus();
  } else {
    for (const std::string& name : options.gpu_names) {
      gpus.push_back(gpuexec::GpuByName(name));
    }
  }

  const gpuexec::HardwareOracle oracle(options.oracle);
  const gpuexec::Profiler profiler(oracle, options.measured_batches);

  // Phase 1: decide the campaign plan and lower it. The OOM filter runs
  // serially first, so the work list — and therefore the merge order —
  // is fixed before any profiling starts.
  std::vector<WorkItem> items;
  items.reserve(gpus.size() * networks.size());
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    for (std::size_t n = 0; n < networks.size(); ++n) {
      if (options.skip_oom) {
        const std::int64_t footprint =
            options.workload == gpuexec::Workload::kTraining
                ? dnn::TrainingFootprintBytes(networks[n], options.batch)
                : dnn::InferenceFootprintBytes(networks[n], options.batch);
        if (!dnn::FitsInMemory(footprint, gpus[g].memory_gb)) continue;
      }
      items.push_back({g, n});
    }
  }

  // Lowering does not depend on the GPU, so each network that has a work
  // item is lowered once and replayed on every GPU it fits on.
  std::vector<char> has_item(networks.size(), 0);
  for (const WorkItem& item : items) has_item[item.network_index] = 1;
  std::vector<gpuexec::LoweredNetwork> lowered(networks.size());
  std::vector<std::int64_t> total_flops(networks.size(), 0);
  ThreadPool pool(options.jobs);
  pool.ParallelFor(networks.size(), [&](std::size_t n) {
    if (!has_item[n]) return;
    lowered[n] = profiler.Lower(networks[n], options.batch, options.workload);
    total_flops[n] = dnn::NetworkFlops(networks[n], options.batch);
  });

  // Phase 2 (parallel, expensive): replay each combo into its own dense
  // array of averaged kernel times. The profiler is deterministic per
  // combo (its noise stream is keyed by (network, gpu, batch)), so slot
  // contents do not depend on which thread ran them or in what order.
  std::vector<gpuexec::Replay> replays(items.size());
  pool.ParallelFor(items.size(), [&](std::size_t i) {
    const std::size_t n = items[i].network_index;
    replays[i] = profiler.ReplayLowered(networks[n], lowered[n],
                                        gpus[items[i].gpu_index]);
  });

  std::size_t kernel_rows = 0;
  for (const gpuexec::Replay& replay : replays) {
    kernel_rows += replay.times_us.size();
  }
  dataset->kernel_rows().reserve(dataset->kernel_rows().size() + kernel_rows);
  dataset->network_rows().reserve(dataset->network_rows().size() +
                                  items.size());

  // Phase 3 (serial): merge in the original gpu-major loop order.
  // Interning happens only here, so the id pools and row order are byte
  // for byte those of a jobs=1 build. GPU names are interned even when
  // every network was skipped, matching the historical serial loop.
  // Launch lists and layer signatures repeat across layers, networks and
  // GPUs, so each distinct launch list's kernel names (by the list's id in
  // the profiler's lowering table) and each (network, layer)'s signature
  // are interned on first use only. That first use is the row where a
  // per-row walk would have interned them, so the pools are unchanged; a
  // layer that launches no kernel is never signed.
  std::vector<std::vector<int>> kernel_ids(profiler.LoweredListCount());
  std::vector<std::vector<int>> signature_ids(networks.size());
  std::size_t next = 0;
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    const int gpu_id = dataset->gpus().Intern(gpus[g].name);
    for (; next < items.size() && items[next].gpu_index == g; ++next) {
      const std::size_t n = items[next].network_index;
      const dnn::Network& network = networks[n];
      const gpuexec::Replay& replay = replays[next];
      std::vector<int>& layer_ids = signature_ids[n];
      if (layer_ids.empty()) layer_ids.assign(network.layers().size(), -1);
      const int network_id = dataset->networks().Intern(network.name());

      NetworkRow net_row;
      net_row.gpu_id = gpu_id;
      net_row.network_id = network_id;
      net_row.family = network.family();
      net_row.batch = options.batch;
      net_row.e2e_us = replay.e2e_time_us;
      net_row.gpu_busy_us = replay.gpu_busy_us;
      net_row.total_flops = total_flops[n];
      dataset->network_rows().push_back(std::move(net_row));

      std::size_t index = 0;
      for (std::size_t layer = 0; layer < lowered[n].layers.size(); ++layer) {
        const gpuexec::LaunchList& launches = *lowered[n].layers[layer];
        if (launches.empty()) continue;
        std::vector<int>& ids = kernel_ids[lowered[n].ids[layer]];
        if (ids.empty()) {
          ids.reserve(launches.size());
          for (const gpuexec::KernelLaunch& launch : launches) {
            ids.push_back(dataset->kernels().Intern(launch.name));
          }
        }
        int& signature_id = layer_ids[layer];
        if (signature_id < 0) {
          signature_id = dataset->signatures().Intern(
              dnn::LayerSignature(network.layers()[layer]));
        }
        for (std::size_t k = 0; k < launches.size(); ++k, ++index) {
          const gpuexec::KernelLaunch& launch = launches[k];
          KernelRow row;
          row.gpu_id = gpu_id;
          row.network_id = network_id;
          row.kernel_id = ids[k];
          row.signature_id = signature_id;
          row.layer_index = static_cast<int>(layer);
          row.layer_kind = launch.layer_kind;
          row.true_driver = launch.driver;
          row.family = launch.family;
          row.batch = options.batch;
          row.time_us = replay.times_us[index];
          row.layer_flops = launch.layer_flops;
          row.input_elems = launch.input_elems;
          row.output_elems = launch.output_elems;
          dataset->kernel_rows().push_back(row);
        }
      }
    }
  }
}

Dataset BuildDataset(const std::vector<dnn::Network>& networks,
                     const BuildOptions& options) {
  Dataset dataset;
  AppendProfiles(networks, options, &dataset);
  return dataset;
}

}  // namespace gpuperf::dataset
