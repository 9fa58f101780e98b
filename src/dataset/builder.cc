#include "dataset/builder.h"

#include <cstddef>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gpuexec/gpu_spec.h"
#include "gpuexec/profiler.h"

#include "dnn/memory.h"

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

  // Phase 1 (serial, cheap): decide the campaign plan. The OOM filter
  // runs here so the work list — and therefore the merge order — is
  // fixed before any profiling starts.
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

  // Phase 2 (parallel, expensive): profile each combo into its own slot.
  // The profiler is deterministic per combo (its noise stream is keyed
  // by (network, gpu, batch)), so slot contents do not depend on which
  // thread ran them or in what order.
  std::vector<gpuexec::NetworkProfile> profiles(items.size());
  ThreadPool pool(options.jobs);
  pool.ParallelFor(items.size(), [&](std::size_t i) {
    profiles[i] = profiler.Profile(networks[items[i].network_index],
                                   gpus[items[i].gpu_index], options.batch,
                                   options.workload);
  });

  // Phase 3 (serial): merge in the original gpu-major loop order.
  // Interning happens only here, so the id pools and row order are byte
  // for byte those of a jobs=1 build. GPU names are interned even when
  // every network was skipped, matching the historical serial loop.
  // A network's layer signatures repeat on every GPU, so each (network,
  // layer) is signed and interned on first use only; that first use is
  // the row where the serial loop interned it, so the pool is unchanged.
  std::vector<std::vector<int>> signature_ids(networks.size());
  std::size_t next = 0;
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    const int gpu_id = dataset->gpus().Intern(gpus[g].name);
    for (; next < items.size() && items[next].gpu_index == g; ++next) {
      const std::size_t n = items[next].network_index;
      const dnn::Network& network = networks[n];
      const gpuexec::NetworkProfile& profile = profiles[next];
      std::vector<int>& layer_ids = signature_ids[n];
      if (layer_ids.empty()) layer_ids.assign(network.layers().size(), -1);
      const int network_id = dataset->networks().Intern(network.name());

      NetworkRow net_row;
      net_row.gpu_id = gpu_id;
      net_row.network_id = network_id;
      net_row.family = network.family();
      net_row.batch = options.batch;
      net_row.e2e_us = profile.e2e_time_us;
      net_row.gpu_busy_us = profile.gpu_busy_us;
      net_row.total_flops = profile.total_flops;
      dataset->network_rows().push_back(std::move(net_row));

      for (const gpuexec::KernelRecord& record : profile.kernels) {
        KernelRow row;
        row.gpu_id = gpu_id;
        row.network_id = network_id;
        row.kernel_id = dataset->kernels().Intern(record.kernel_name);
        int& signature_id = layer_ids[record.layer_index];
        if (signature_id < 0) {
          signature_id = dataset->signatures().Intern(
              dnn::LayerSignature(network.layers()[record.layer_index]));
        }
        row.signature_id = signature_id;
        row.layer_index = record.layer_index;
        row.layer_kind = record.layer_kind;
        row.true_driver = record.true_driver;
        row.family = record.family;
        row.batch = options.batch;
        row.time_us = record.time_us;
        row.layer_flops = record.layer_flops;
        row.input_elems = record.input_elems;
        row.output_elems = record.output_elems;
        dataset->kernel_rows().push_back(std::move(row));
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
