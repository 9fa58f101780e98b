#ifndef GPUPERF_DATASET_DATASET_H_
#define GPUPERF_DATASET_DATASET_H_

/**
 * @file
 * The open DNN performance database (the paper's first contribution).
 *
 * Two tables, mirroring the paper's CSV layout: a network table with one
 * row per (GPU, network, batch) execution, and a kernel table with one row
 * per kernel execution carrying the layer linkage and the three candidate
 * regression features (input NCHW, layer FLOPs, output NCHW). Strings
 * (GPU, network, kernel, layer-signature) are interned into id pools.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dnn/layer.h"
#include "gpuexec/kernel.h"

namespace gpuperf::dataset {

/** One kernel execution (averaged over measured batches). */
struct KernelRow {
  int gpu_id = 0;
  int network_id = 0;
  int kernel_id = 0;      // interned kernel name
  int signature_id = 0;   // interned layer signature (mapping-table key)
  int layer_index = 0;
  dnn::LayerKind layer_kind = dnn::LayerKind::kRelu;
  gpuexec::CostDriver true_driver = gpuexec::CostDriver::kOutput;
  gpuexec::KernelFamily family = gpuexec::KernelFamily::kElementwise;
  std::int64_t batch = 0;
  double time_us = 0;
  std::int64_t layer_flops = 0;
  std::int64_t input_elems = 0;
  std::int64_t output_elems = 0;

  /** The feature value selected by `driver`. */
  std::int64_t DriverValue(gpuexec::CostDriver driver) const;
};

/** One end-to-end execution. */
struct NetworkRow {
  int gpu_id = 0;
  int network_id = 0;
  std::string family;
  std::int64_t batch = 0;
  double e2e_us = 0;
  double gpu_busy_us = 0;
  std::int64_t total_flops = 0;
};

/** An interning pool mapping strings to dense ids. */
class StringPool {
 public:
  /** Returns the id of `text`, adding it if new. */
  int Intern(const std::string& text);

  /** Id of `text`, or -1 if absent. */
  int Find(const std::string& text) const;

  /** String for `id`. */
  const std::string& Get(int id) const;

  /** Number of interned strings. */
  int size() const { return static_cast<int>(strings_.size()); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, int> index_;
};

/** The performance database. */
class Dataset {
 public:
  StringPool& gpus() { return gpus_; }
  StringPool& networks() { return networks_; }
  StringPool& kernels() { return kernels_; }
  StringPool& signatures() { return signatures_; }
  const StringPool& gpus() const { return gpus_; }
  const StringPool& networks() const { return networks_; }
  const StringPool& kernels() const { return kernels_; }
  const StringPool& signatures() const { return signatures_; }

  std::vector<KernelRow>& kernel_rows() { return kernel_rows_; }
  std::vector<NetworkRow>& network_rows() { return network_rows_; }
  const std::vector<KernelRow>& kernel_rows() const { return kernel_rows_; }
  const std::vector<NetworkRow>& network_rows() const {
    return network_rows_;
  }

  /** Writes networks.csv and kernels.csv into `directory`. */
  void SaveCsv(const std::string& directory) const;

  /** Reads a database written by SaveCsv(); Fatal() on any error. */
  static Dataset LoadCsv(const std::string& directory);

  /**
   * Reads a database written by SaveCsv(), validating every field; any
   * missing file, malformed number, non-finite timing, or negative count
   * is reported as `path:line: field '...': message` instead of dying.
   */
  [[nodiscard]] static StatusOr<Dataset> TryLoadCsv(const std::string& directory);

 private:
  StringPool gpus_;
  StringPool networks_;
  StringPool kernels_;
  StringPool signatures_;
  std::vector<KernelRow> kernel_rows_;
  std::vector<NetworkRow> network_rows_;
};

/** Deterministic split of network ids into train/test (paper: 15% test). */
struct NetworkSplit {
  std::vector<int> train_ids;
  std::vector<int> test_ids;

  /** True if `network_id` is in the test partition. */
  bool IsTest(int network_id) const;

  /** IsTest of every id in [0, `network_count`), one byte per id. */
  std::vector<char> TestMask(int network_count) const;
};

/** Splits the dataset's networks; `test_fraction` in (0, 1). */
NetworkSplit SplitByNetwork(const Dataset& dataset, double test_fraction,
                            std::uint64_t seed);

}  // namespace gpuperf::dataset

#endif  // GPUPERF_DATASET_DATASET_H_
