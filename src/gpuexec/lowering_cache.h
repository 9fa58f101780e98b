#ifndef GPUPERF_GPUEXEC_LOWERING_CACHE_H_
#define GPUPERF_GPUEXEC_LOWERING_CACHE_H_

// Deprecated: a process-wide Profiler kept only for perfbench's campaign
// probes. Library code lowers through a Profiler it owns; the benchmark
// change that moves perfbench onto Profiler::Lower deletes this file.

#include "gpuexec/profiler.h"

namespace gpuperf::gpuexec {

/** One process-wide Profiler whose lowering table Clear() empties. */
struct LoweringCache {
  static LoweringCache& Global() {
    static LoweringCache* const kCache = new LoweringCache();
    return *kCache;
  }
  void Clear() { profiler = Profiler(HardwareOracle()); }

  Profiler profiler{HardwareOracle()};
};

inline LoweredNetwork CachedLowerNetworkWorkload(const dnn::Network& network,
                                                 std::int64_t batch,
                                                 Workload workload) {
  return LoweringCache::Global().profiler.Lower(network, batch, workload);
}

}  // namespace gpuperf::gpuexec

#endif  // GPUPERF_GPUEXEC_LOWERING_CACHE_H_
