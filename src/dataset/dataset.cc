#include "dataset/dataset.h"

#include <algorithm>

#include "common/csv.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace gpuperf::dataset {

std::int64_t KernelRow::DriverValue(gpuexec::CostDriver driver) const {
  switch (driver) {
    case gpuexec::CostDriver::kInput: return input_elems;
    case gpuexec::CostDriver::kOperation: return layer_flops;
    case gpuexec::CostDriver::kOutput: return output_elems;
  }
  GP_CHECK(false) << "unhandled CostDriver";
  return 0;
}

int StringPool::Intern(const std::string& text) {
  auto [it, inserted] = index_.emplace(text, size());
  if (inserted) strings_.push_back(text);
  return it->second;
}

int StringPool::Find(const std::string& text) const {
  auto it = index_.find(text);
  return it == index_.end() ? -1 : it->second;
}

const std::string& StringPool::Get(int id) const {
  GP_CHECK_GE(id, 0);
  GP_CHECK_LT(static_cast<std::size_t>(id), strings_.size());
  return strings_[id];
}

void Dataset::SaveCsv(const std::string& directory) const {
  {
    CsvWriter writer(directory + "/networks.csv");
    writer.WriteRow({"gpu", "network", "family", "batch", "e2e_us",
                     "gpu_busy_us", "total_flops"});
    for (const NetworkRow& row : network_rows_) {
      writer.WriteRow({gpus_.Get(row.gpu_id), networks_.Get(row.network_id),
                       row.family, Format("%ld", (long)row.batch),
                       Format("%.6f", row.e2e_us),
                       Format("%.6f", row.gpu_busy_us),
                       Format("%ld", (long)row.total_flops)});
    }
  }
  {
    CsvWriter writer(directory + "/kernels.csv");
    writer.WriteRow({"gpu", "network", "kernel", "signature", "layer_index",
                     "layer_kind", "true_driver", "family", "batch",
                     "time_us", "layer_flops", "input_elems",
                     "output_elems"});
    for (const KernelRow& row : kernel_rows_) {
      writer.WriteRow(
          {gpus_.Get(row.gpu_id), networks_.Get(row.network_id),
           kernels_.Get(row.kernel_id), signatures_.Get(row.signature_id),
           Format("%d", row.layer_index), dnn::LayerKindName(row.layer_kind),
           gpuexec::CostDriverName(row.true_driver),
           gpuexec::KernelFamilyName(row.family),
           Format("%ld", (long)row.batch), Format("%.6f", row.time_us),
           Format("%ld", (long)row.layer_flops),
           Format("%ld", (long)row.input_elems),
           Format("%ld", (long)row.output_elems)});
    }
  }
}

namespace {

/** "path:line: field 'x': <why>" — every loader error names all three. */
Status AtField(const CsvTable& table, std::size_t row, const char* field,
               Status status) {
  return status.Annotate(table.RowLocation(row) + ": field '" + field + "'");
}

/** Parses a non-negative integer field. */
Status ReadCount(const CsvTable& table, std::size_t row, std::size_t column,
                 const char* field, std::int64_t* out) {
  StatusOr<long long> value = ParseInt64(table.rows[row][column]);
  if (!value.ok()) return AtField(table, row, field, value.status());
  if (*value < 0) {
    return AtField(table, row, field,
                   OutOfRangeError("'" + table.rows[row][column] +
                                   "' must be non-negative"));
  }
  *out = *value;
  return Status::Ok();
}

/** Parses a finite, non-negative timing field. */
Status ReadTimeUs(const CsvTable& table, std::size_t row, std::size_t column,
                  const char* field, double* out) {
  StatusOr<double> value = ParseFiniteDouble(table.rows[row][column]);
  if (!value.ok()) return AtField(table, row, field, value.status());
  if (*value < 0) {
    return AtField(table, row, field,
                   OutOfRangeError("'" + table.rows[row][column] +
                                   "' must be non-negative"));
  }
  *out = *value;
  return Status::Ok();
}

Status ParseCostDriver(const CsvTable& table, std::size_t row,
                       std::size_t column, const char* field,
                       gpuexec::CostDriver* out) {
  const std::string& text = table.rows[row][column];
  if (text == "input") {
    *out = gpuexec::CostDriver::kInput;
  } else if (text == "operation") {
    *out = gpuexec::CostDriver::kOperation;
  } else if (text == "output") {
    *out = gpuexec::CostDriver::kOutput;
  } else {
    return AtField(table, row, field,
                   InvalidArgumentError(
                       "'" + text +
                       "' is not a cost driver (input|operation|output)"));
  }
  return Status::Ok();
}

}  // namespace

Dataset Dataset::LoadCsv(const std::string& directory) {
  StatusOr<Dataset> dataset = TryLoadCsv(directory);
  if (!dataset.ok()) Fatal(dataset.status().message());
  return std::move(dataset).value();
}

StatusOr<Dataset> Dataset::TryLoadCsv(const std::string& directory) {
  Dataset dataset;
  {
    GP_ASSIGN_OR_RETURN(const CsvTable table,
                        TryReadCsv(directory + "/networks.csv"));
    GP_ASSIGN_OR_RETURN(const std::size_t gpu, table.FindColumn("gpu"));
    GP_ASSIGN_OR_RETURN(const std::size_t network,
                        table.FindColumn("network"));
    GP_ASSIGN_OR_RETURN(const std::size_t family, table.FindColumn("family"));
    GP_ASSIGN_OR_RETURN(const std::size_t batch, table.FindColumn("batch"));
    GP_ASSIGN_OR_RETURN(const std::size_t e2e, table.FindColumn("e2e_us"));
    GP_ASSIGN_OR_RETURN(const std::size_t busy,
                        table.FindColumn("gpu_busy_us"));
    GP_ASSIGN_OR_RETURN(const std::size_t flops,
                        table.FindColumn("total_flops"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      NetworkRow row;
      row.gpu_id = dataset.gpus_.Intern(fields[gpu]);
      row.network_id = dataset.networks_.Intern(fields[network]);
      row.family = fields[family];
      GP_RETURN_IF_ERROR(ReadCount(table, r, batch, "batch", &row.batch));
      GP_RETURN_IF_ERROR(ReadTimeUs(table, r, e2e, "e2e_us", &row.e2e_us));
      GP_RETURN_IF_ERROR(
          ReadTimeUs(table, r, busy, "gpu_busy_us", &row.gpu_busy_us));
      GP_RETURN_IF_ERROR(
          ReadCount(table, r, flops, "total_flops", &row.total_flops));
      dataset.network_rows_.push_back(std::move(row));
    }
  }
  {
    GP_ASSIGN_OR_RETURN(const CsvTable table,
                        TryReadCsv(directory + "/kernels.csv"));
    GP_ASSIGN_OR_RETURN(const std::size_t gpu, table.FindColumn("gpu"));
    GP_ASSIGN_OR_RETURN(const std::size_t network,
                        table.FindColumn("network"));
    GP_ASSIGN_OR_RETURN(const std::size_t kernel, table.FindColumn("kernel"));
    GP_ASSIGN_OR_RETURN(const std::size_t signature,
                        table.FindColumn("signature"));
    GP_ASSIGN_OR_RETURN(const std::size_t layer_index,
                        table.FindColumn("layer_index"));
    GP_ASSIGN_OR_RETURN(const std::size_t layer_kind,
                        table.FindColumn("layer_kind"));
    GP_ASSIGN_OR_RETURN(const std::size_t driver,
                        table.FindColumn("true_driver"));
    GP_ASSIGN_OR_RETURN(const std::size_t family, table.FindColumn("family"));
    GP_ASSIGN_OR_RETURN(const std::size_t batch, table.FindColumn("batch"));
    GP_ASSIGN_OR_RETURN(const std::size_t time, table.FindColumn("time_us"));
    GP_ASSIGN_OR_RETURN(const std::size_t layer_flops,
                        table.FindColumn("layer_flops"));
    GP_ASSIGN_OR_RETURN(const std::size_t input_elems,
                        table.FindColumn("input_elems"));
    GP_ASSIGN_OR_RETURN(const std::size_t output_elems,
                        table.FindColumn("output_elems"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      KernelRow row;
      row.gpu_id = dataset.gpus_.Intern(fields[gpu]);
      row.network_id = dataset.networks_.Intern(fields[network]);
      row.kernel_id = dataset.kernels_.Intern(fields[kernel]);
      row.signature_id = dataset.signatures_.Intern(fields[signature]);
      std::int64_t index = 0;
      GP_RETURN_IF_ERROR(
          ReadCount(table, r, layer_index, "layer_index", &index));
      row.layer_index = static_cast<int>(index);
      if (!dnn::TryLayerKindFromName(fields[layer_kind], &row.layer_kind)) {
        return AtField(table, r, "layer_kind",
                       InvalidArgumentError("'" + fields[layer_kind] +
                                            "' is not a layer kind"));
      }
      GP_RETURN_IF_ERROR(
          ParseCostDriver(table, r, driver, "true_driver", &row.true_driver));
      // Family is informational; match by name.
      row.family = gpuexec::KernelFamily::kElementwise;
      for (int f = 0; f <= static_cast<int>(gpuexec::KernelFamily::kGather);
           ++f) {
        if (gpuexec::KernelFamilyName(
                static_cast<gpuexec::KernelFamily>(f)) == fields[family]) {
          row.family = static_cast<gpuexec::KernelFamily>(f);
          break;
        }
      }
      GP_RETURN_IF_ERROR(ReadCount(table, r, batch, "batch", &row.batch));
      GP_RETURN_IF_ERROR(ReadTimeUs(table, r, time, "time_us", &row.time_us));
      GP_RETURN_IF_ERROR(ReadCount(table, r, layer_flops, "layer_flops",
                                   &row.layer_flops));
      GP_RETURN_IF_ERROR(ReadCount(table, r, input_elems, "input_elems",
                                   &row.input_elems));
      GP_RETURN_IF_ERROR(ReadCount(table, r, output_elems, "output_elems",
                                   &row.output_elems));
      dataset.kernel_rows_.push_back(std::move(row));
    }
  }
  return dataset;
}

bool NetworkSplit::IsTest(int network_id) const {
  // test_ids is kept sorted by SplitByNetwork.
  return std::binary_search(test_ids.begin(), test_ids.end(), network_id);
}

std::vector<char> NetworkSplit::TestMask(int network_count) const {
  std::vector<char> mask(network_count, 0);
  for (int id : test_ids) {
    if (id >= 0 && id < network_count) mask[id] = 1;
  }
  return mask;
}

NetworkSplit SplitByNetwork(const Dataset& dataset, double test_fraction,
                            std::uint64_t seed) {
  GP_CHECK_GT(test_fraction, 0.0);
  GP_CHECK_LT(test_fraction, 1.0);
  const int count = dataset.networks().size();
  std::vector<int> ids(count);
  for (int i = 0; i < count; ++i) ids[i] = i;
  // Fisher-Yates with the project RNG for platform-stable shuffles.
  Rng rng(seed);
  for (int i = count - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.NextBelow(i + 1));
    std::swap(ids[i], ids[j]);
  }
  const int test_count =
      std::max(1, static_cast<int>(test_fraction * count));
  NetworkSplit split;
  split.test_ids.assign(ids.begin(), ids.begin() + test_count);
  split.train_ids.assign(ids.begin() + test_count, ids.end());
  std::sort(split.test_ids.begin(), split.test_ids.end());
  std::sort(split.train_ids.begin(), split.train_ids.end());
  return split;
}

}  // namespace gpuperf::dataset
