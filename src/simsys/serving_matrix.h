#ifndef GPUPERF_SIMSYS_SERVING_MATRIX_H_
#define GPUPERF_SIMSYS_SERVING_MATRIX_H_

/**
 * @file
 * The serving simulator's service-time matrices.
 *
 * SimulateServing consumes `[job_type][gpu]` matrices of true and of
 * model-predicted service times. The truth comes from the hardware
 * oracle (TruthMatrix). The predicted matrix is the input to
 * predicted-least-load dispatch and predicted-SLO shedding. Filling it
 * is the predictor's serving hot path: every refresh (bundle promotion,
 * pool change, batch change) is |jobs| x |gpus| predictions.
 * FillPredictedServingMatrix packs the covered cells into
 * one PredictQuery span, answers them with a single zero-allocation
 * KwModel::PredictMany sweep over compiled plans, and scatters the
 * results back; uncovered cells get the NaN sentinel that makes the
 * dispatcher degrade per-decision. Results are bit-identical to the
 * per-cell `CoverageFor + PredictUs` loop it replaces.
 *
 * The scratch buffer is caller-owned so steady-state refills reuse its
 * capacity instead of reallocating.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "dnn/network.h"
#include "gpuexec/gpu_spec.h"
#include "models/kw_model.h"

namespace gpuperf::simsys {

/**
 * The oracle's e2e time of every (network, GPU) cell at `batch`, as a
 * `networks.size() x gpus.size()` matrix: what Profiler::MeasureE2eUs
 * reports, with each network lowered once for all GPUs.
 */
std::vector<std::vector<double>> TruthMatrix(
    const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus, std::int64_t batch);

/** Reusable scratch for FillPredictedServingMatrix. */
struct ServingMatrixBuffer {
  std::vector<models::PredictQuery> queries;          // covered cells only
  std::vector<double> out_us;                         // sweep results
  std::vector<std::pair<std::size_t, std::size_t>> cells;  // (job, gpu)
};

/**
 * Fills `predicted` as a `networks.size() x gpus.size()` matrix:
 * `kw`-predicted service time where the model's trained scope covers
 * the (network, GPU) cell, NaN (degrade-this-decision sentinel)
 * elsewhere. One PredictMany sweep answers every covered cell.
 */
void FillPredictedServingMatrix(
    const models::KwModel& kw, const std::vector<dnn::Network>& networks,
    const std::vector<const gpuexec::GpuSpec*>& gpus, std::int64_t batch,
    ServingMatrixBuffer& buffer,
    std::vector<std::vector<double>>& predicted);

}  // namespace gpuperf::simsys

#endif  // GPUPERF_SIMSYS_SERVING_MATRIX_H_
