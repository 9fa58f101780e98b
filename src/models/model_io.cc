#include "models/model_io.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "common/csv.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"

namespace gpuperf::models {
namespace {

constexpr const char* kBundleFiles[] = {
    "kernel_models.csv", "mapping_table.csv", "calibration.csv",
    "layer_fallback.csv"};

/** Stable content checksum rendered as fixed-width hex. */
std::string ContentChecksum(const std::string& content) {
  return Format("%016llx",
                static_cast<unsigned long long>(StableHash(content)));
}

Status AtField(const CsvTable& table, std::size_t row, const char* field,
               Status status) {
  return status.Annotate(table.RowLocation(row) + ": field '" + field + "'");
}

/** Parses a finite double field of a bundle table. */
Status ReadFinite(const CsvTable& table, std::size_t row, std::size_t column,
                  const char* field, double* out) {
  StatusOr<double> value = ParseFiniteDouble(table.rows[row][column]);
  if (!value.ok()) return AtField(table, row, field, value.status());
  *out = *value;
  return Status::Ok();
}

/** One manifest entry: what the bundle claims about a file. */
struct ManifestEntry {
  std::string checksum;
  long long rows = 0;
};

/**
 * Loads, checksums, and parses one bundle file against its manifest
 * entry. Truncation, tampering, and row-count drift all surface here.
 */
StatusOr<CsvTable> LoadBundleFile(
    const std::string& directory, const std::string& file,
    const std::map<std::string, ManifestEntry>& manifest) {
  auto entry = manifest.find(file);
  if (entry == manifest.end()) {
    return DataLossError(directory + "/manifest.csv: no entry for '" + file +
                         "'");
  }
  const std::string path = directory + "/" + file;
  GP_ASSIGN_OR_RETURN(const std::string content, ReadFileToString(path));
  const std::string checksum = ContentChecksum(content);
  if (checksum != entry->second.checksum) {
    return DataLossError(path + ": checksum mismatch (manifest " +
                         entry->second.checksum + ", file " + checksum +
                         "): bundle is corrupt or was edited by hand");
  }
  GP_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(content, path));
  if (static_cast<long long>(table.rows.size()) != entry->second.rows) {
    return DataLossError(
        path + Format(": manifest says %lld rows, file has %zu (truncated?)",
                      entry->second.rows, table.rows.size()));
  }
  return table;
}

/** Renders rows to an in-memory CSV with the same escaping as CsvWriter. */
class CsvBuffer {
 public:
  void WriteRow(const std::vector<std::string>& fields) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) content_ += ',';
      content_ += CsvEscape(fields[i]);
    }
    content_ += '\n';
    ++rows_;
  }

  /** Data rows written so far (the header row is not counted). */
  long long data_rows() const { return rows_ - 1; }

  std::string Take() { return std::move(content_); }

 private:
  std::string content_;
  long long rows_ = 0;
};

Status FsError(const std::string& what, const std::error_code& ec) {
  return InternalError(what + ": " + ec.message());
}

}  // namespace

std::vector<BundleFilePlan> ModelIo::PlanKwSave(const KwModel& model) {
  std::vector<BundleFilePlan> plan;
  std::vector<long long> data_rows;
  {
    CsvBuffer csv;
    csv.WriteRow({"gpu", "kernel", "driver", "slope", "intercept",
                  "cluster_id", "solo_r2"});
    for (const auto& [gpu, kernels] : model.per_gpu_) {
      for (const auto& [name, km] : kernels) {
        csv.WriteRow({gpu, name, gpuexec::CostDriverName(km.driver),
                      Format("%.12g", km.fit.slope),
                      Format("%.12g", km.fit.intercept),
                      Format("%d", km.cluster_id),
                      Format("%.8g", km.solo_r2)});
      }
    }
    data_rows.push_back(csv.data_rows());
    plan.push_back({"kernel_models.csv", csv.Take()});
  }
  {
    CsvBuffer csv;
    csv.WriteRow({"signature", "kernels"});
    for (const auto& [signature, names] : model.mapping_) {
      csv.WriteRow({signature, Join(names, ";")});
    }
    data_rows.push_back(csv.data_rows());
    plan.push_back({"mapping_table.csv", csv.Take()});
  }
  {
    CsvBuffer csv;
    csv.WriteRow({"gpu", "factor"});
    for (const auto& [gpu, factor] : model.calibration_) {
      csv.WriteRow({gpu, Format("%.12g", factor)});
    }
    data_rows.push_back(csv.data_rows());
    plan.push_back({"calibration.csv", csv.Take()});
  }
  {
    CsvBuffer csv;
    csv.WriteRow({"gpu", "layer_kind", "slope", "intercept"});
    for (const auto& [key, fit] : model.lw_fallback_.fits()) {
      csv.WriteRow({key.first, dnn::LayerKindName(key.second),
                    Format("%.12g", fit.slope),
                    Format("%.12g", fit.intercept)});
    }
    data_rows.push_back(csv.data_rows());
    plan.push_back({"layer_fallback.csv", csv.Take()});
  }
  {
    // The manifest is planned (and written) last so a save interrupted
    // anywhere earlier never yields a bundle that checks out.
    CsvBuffer csv;
    csv.WriteRow({"bundle_version", "file", "checksum", "rows"});
    for (std::size_t i = 0; i < plan.size(); ++i) {
      csv.WriteRow({Format("%d", kKwBundleVersion), plan[i].name,
                    ContentChecksum(plan[i].content),
                    Format("%lld", data_rows[i])});
    }
    plan.push_back({"manifest.csv", csv.Take()});
  }
  return plan;
}

Status ModelIo::SaveKw(const KwModel& model, const std::string& directory) {
  namespace fs = std::filesystem;
  const fs::path dir(directory);
  const fs::path staging(directory + kBundleSavingSuffix);
  const fs::path stale(directory + kBundleStaleSuffix);
  std::error_code ec;

  // Stage the whole next generation beside the live bundle.
  fs::remove_all(staging, ec);
  if (ec) return FsError("removing stale staging dir " + staging.string(), ec);
  fs::create_directories(staging, ec);
  if (ec) return FsError("creating staging dir " + staging.string(), ec);
  for (const BundleFilePlan& file : PlanKwSave(model)) {
    const fs::path path = staging / file.name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.content.data(),
              static_cast<std::streamsize>(file.content.size()));
    out.close();
    if (!out) return DataLossError(path.string() + ": write failed");
  }

  // Commit with renames only; a crash between any two steps leaves a
  // state LoadKwRecovering() resolves to exactly one generation.
  fs::remove_all(stale, ec);
  if (ec) return FsError("removing stale dir " + stale.string(), ec);
  if (fs::exists(dir, ec)) {
    fs::rename(dir, stale, ec);
    if (ec) {
      return FsError("renaming " + dir.string() + " -> " + stale.string(), ec);
    }
  }
  fs::rename(staging, dir, ec);
  if (ec) {
    return FsError("renaming " + staging.string() + " -> " + dir.string(), ec);
  }
  fs::remove_all(stale, ec);
  if (ec) return FsError("removing stale dir " + stale.string(), ec);
  return Status::Ok();
}

StatusOr<KwModel> ModelIo::LoadKwRecovering(const std::string& directory) {
  namespace fs = std::filesystem;
  const std::string staging = directory + kBundleSavingSuffix;
  const std::string stale = directory + kBundleStaleSuffix;
  std::error_code ec;

  StatusOr<KwModel> committed = LoadKw(directory);
  if (committed.ok()) {
    // The committed generation wins; sidecars from an interrupted save
    // (an unswapped candidate or an unremoved predecessor) are dropped.
    fs::remove_all(staging, ec);
    fs::remove_all(stale, ec);
    return committed;
  }

  StatusOr<KwModel> staged = LoadKw(staging);
  if (staged.ok()) {
    // The save had fully staged the new generation but crashed mid-swap:
    // finish the commit it started.
    fs::remove_all(directory, ec);
    if (ec) return FsError("removing partial bundle " + directory, ec);
    fs::rename(staging, directory, ec);
    if (ec) return FsError("renaming " + staging + " -> " + directory, ec);
    fs::remove_all(stale, ec);
    if (ec) return FsError("removing stale dir " + stale, ec);
    return staged;
  }

  StatusOr<KwModel> previous = LoadKw(stale);
  if (previous.ok()) {
    // Crash after the old generation moved aside but before the staging
    // dir was complete: unwind to the old generation.
    fs::remove_all(directory, ec);
    if (ec) return FsError("removing partial bundle " + directory, ec);
    fs::remove_all(staging, ec);
    if (ec) return FsError("removing partial staging dir " + staging, ec);
    fs::rename(stale, directory, ec);
    if (ec) return FsError("renaming " + stale + " -> " + directory, ec);
    return previous;
  }

  return Status(committed.status())
      .Annotate("no recoverable generation (also checked the '" +
                std::string(kBundleSavingSuffix) + "' and '" +
                std::string(kBundleStaleSuffix) + "' sidecars)");
}

StatusOr<KwModel> ModelIo::LoadKw(const std::string& directory) {
  // --- Manifest: version gate + per-file integrity expectations.
  StatusOr<CsvTable> manifest_table =
      TryReadCsv(directory + "/manifest.csv");
  if (!manifest_table.ok()) {
    return Status(manifest_table.status())
        .Annotate("not a model bundle (missing or unreadable manifest)");
  }
  std::map<std::string, ManifestEntry> manifest;
  {
    const CsvTable& table = *manifest_table;
    GP_ASSIGN_OR_RETURN(const std::size_t version,
                        table.FindColumn("bundle_version"));
    GP_ASSIGN_OR_RETURN(const std::size_t file, table.FindColumn("file"));
    GP_ASSIGN_OR_RETURN(const std::size_t checksum,
                        table.FindColumn("checksum"));
    GP_ASSIGN_OR_RETURN(const std::size_t rows, table.FindColumn("rows"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      StatusOr<int> v = ParseInt(table.rows[r][version]);
      if (!v.ok()) {
        return AtField(table, r, "bundle_version", v.status());
      }
      if (*v != kKwBundleVersion) {
        return AtField(
            table, r, "bundle_version",
            FailedPreconditionError(Format(
                "bundle version %d is not supported (this build reads "
                "version %d); re-export with `gpuperf train`",
                *v, kKwBundleVersion)));
      }
      StatusOr<long long> row_count = ParseInt64(table.rows[r][rows]);
      if (!row_count.ok()) return AtField(table, r, "rows", row_count.status());
      manifest[table.rows[r][file]] = {table.rows[r][checksum], *row_count};
    }
  }

  KwModel model;
  {
    GP_ASSIGN_OR_RETURN(
        const CsvTable table,
        LoadBundleFile(directory, "kernel_models.csv", manifest));
    GP_ASSIGN_OR_RETURN(const std::size_t gpu, table.FindColumn("gpu"));
    GP_ASSIGN_OR_RETURN(const std::size_t kernel, table.FindColumn("kernel"));
    GP_ASSIGN_OR_RETURN(const std::size_t driver, table.FindColumn("driver"));
    GP_ASSIGN_OR_RETURN(const std::size_t slope, table.FindColumn("slope"));
    GP_ASSIGN_OR_RETURN(const std::size_t intercept,
                        table.FindColumn("intercept"));
    GP_ASSIGN_OR_RETURN(const std::size_t cluster,
                        table.FindColumn("cluster_id"));
    GP_ASSIGN_OR_RETURN(const std::size_t solo_r2,
                        table.FindColumn("solo_r2"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      KernelModel km;
      if (fields[driver] == "input") {
        km.driver = gpuexec::CostDriver::kInput;
      } else if (fields[driver] == "operation") {
        km.driver = gpuexec::CostDriver::kOperation;
      } else if (fields[driver] == "output") {
        km.driver = gpuexec::CostDriver::kOutput;
      } else {
        return AtField(table, r, "driver",
                       InvalidArgumentError(
                           "'" + fields[driver] +
                           "' is not a cost driver (input|operation|output)"));
      }
      GP_RETURN_IF_ERROR(
          ReadFinite(table, r, slope, "slope", &km.fit.slope));
      GP_RETURN_IF_ERROR(
          ReadFinite(table, r, intercept, "intercept", &km.fit.intercept));
      StatusOr<int> cluster_id = ParseInt(fields[cluster]);
      if (!cluster_id.ok()) {
        return AtField(table, r, "cluster_id", cluster_id.status());
      }
      km.cluster_id = *cluster_id;
      GP_RETURN_IF_ERROR(
          ReadFinite(table, r, solo_r2, "solo_r2", &km.solo_r2));
      auto [it, inserted] =
          model.per_gpu_[fields[gpu]].emplace(fields[kernel], km);
      (void)it;
      if (!inserted) {
        return AtField(table, r, "kernel",
                       DataLossError("duplicate kernel model for (" +
                                     fields[gpu] + ", " + fields[kernel] +
                                     ")"));
      }
    }
    if (model.per_gpu_.empty()) {
      return DataLossError(table.path + ": no kernel models (empty bundle)");
    }
  }
  {
    GP_ASSIGN_OR_RETURN(
        const CsvTable table,
        LoadBundleFile(directory, "mapping_table.csv", manifest));
    GP_ASSIGN_OR_RETURN(const std::size_t signature,
                        table.FindColumn("signature"));
    GP_ASSIGN_OR_RETURN(const std::size_t kernels,
                        table.FindColumn("kernels"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      if (fields[kernels].empty()) {
        return AtField(table, r, "kernels",
                       InvalidArgumentError("empty kernel list for signature '" +
                                            fields[signature] + "'"));
      }
      auto [it, inserted] = model.mapping_.emplace(
          fields[signature], Split(fields[kernels], ';'));
      (void)it;
      if (!inserted) {
        return AtField(table, r, "signature",
                       DataLossError("duplicate mapping-table key '" +
                                     fields[signature] + "'"));
      }
    }
  }
  {
    GP_ASSIGN_OR_RETURN(const CsvTable table,
                        LoadBundleFile(directory, "calibration.csv",
                                       manifest));
    GP_ASSIGN_OR_RETURN(const std::size_t gpu, table.FindColumn("gpu"));
    GP_ASSIGN_OR_RETURN(const std::size_t factor,
                        table.FindColumn("factor"));
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      double value = 0;
      GP_RETURN_IF_ERROR(ReadFinite(table, r, factor, "factor", &value));
      if (value <= 0) {
        return AtField(table, r, "factor",
                       OutOfRangeError(Format(
                           "calibration factor %g must be positive", value)));
      }
      auto [it, inserted] = model.calibration_.emplace(fields[gpu], value);
      (void)it;
      if (!inserted) {
        return AtField(table, r, "gpu",
                       DataLossError("duplicate calibration row for GPU '" +
                                     fields[gpu] + "'"));
      }
    }
  }
  {
    GP_ASSIGN_OR_RETURN(
        const CsvTable table,
        LoadBundleFile(directory, "layer_fallback.csv", manifest));
    GP_ASSIGN_OR_RETURN(const std::size_t gpu, table.FindColumn("gpu"));
    GP_ASSIGN_OR_RETURN(const std::size_t kind,
                        table.FindColumn("layer_kind"));
    GP_ASSIGN_OR_RETURN(const std::size_t slope, table.FindColumn("slope"));
    GP_ASSIGN_OR_RETURN(const std::size_t intercept,
                        table.FindColumn("intercept"));
    std::set<std::pair<std::string, dnn::LayerKind>> seen;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      const auto& fields = table.rows[r];
      dnn::LayerKind layer_kind;
      if (!dnn::TryLayerKindFromName(fields[kind], &layer_kind)) {
        return AtField(table, r, "layer_kind",
                       InvalidArgumentError("'" + fields[kind] +
                                            "' is not a layer kind"));
      }
      if (!seen.emplace(fields[gpu], layer_kind).second) {
        return AtField(table, r, "layer_kind",
                       DataLossError("duplicate fallback row for (" +
                                     fields[gpu] + ", " + fields[kind] +
                                     ")"));
      }
      regression::LinearFit fit;
      GP_RETURN_IF_ERROR(ReadFinite(table, r, slope, "slope", &fit.slope));
      GP_RETURN_IF_ERROR(
          ReadFinite(table, r, intercept, "intercept", &fit.intercept));
      model.lw_fallback_.SetFit(fields[gpu], layer_kind, fit);
    }
    // Every trained GPU must be able to degrade to the layer-wise tier;
    // a bundle missing those rows would silently predict 0 for unseen
    // kernels, which is worse than failing the load.
    for (const auto& [gpu_name, kernels] : model.per_gpu_) {
      (void)kernels;
      bool found = false;
      for (const auto& [key, fit] : model.lw_fallback_.fits()) {
        (void)fit;
        if (key.first == gpu_name) {
          found = true;
          break;
        }
      }
      if (!found) {
        return DataLossError(table.path + ": no fallback rows for GPU '" +
                             gpu_name +
                             "' (bundle incomplete: unseen kernels on this "
                             "GPU could not degrade to the LW tier)");
      }
    }
  }
  // Deserialized state is string-keyed; rebuild the dense predict tables
  // exactly as Train() does so a loaded model predicts at full speed.
  model.FinalizeTables();
  return model;
}

}  // namespace gpuperf::models
