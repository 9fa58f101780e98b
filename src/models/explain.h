#ifndef GPUPERF_MODELS_EXPLAIN_H_
#define GPUPERF_MODELS_EXPLAIN_H_

/**
 * @file
 * Prediction-error attribution: decompose a compiled prediction into
 * per-layer, per-cluster, and per-term contributions.
 *
 * ExplainPlan replays the plan into a recording sink that wraps the
 * one fold, models::BatchSum (see models/prediction_plan.h) — the fold
 * PredictionPlan::EvalUs and the per-query PredictUs feed too. So the
 * reported `total_us` is bit-identical to EvalUs and PredictUs by
 * construction, not by mirroring their arithmetic. Each layer's
 * contribution is the exact addend `subtotal * scale_a * scale_b` the
 * fold adds to its running total — summing the layer contributions in
 * order reproduces the total bit-for-bit. Per-term and per-cluster
 * contributions apply the layer scales to each term individually, which
 * re-associates one multiplication; their sums agree with the total to
 * within accumulated rounding (1 ulp per term), never more.
 *
 * AttributeResiduals distributes an observed-minus-predicted residual
 * across kernel clusters in proportion to each cluster's share of the
 * prediction — the serving-time attribution `gpuperf explain` prints
 * when given an observations CSV. Cluster id -1 collects layer-wise
 * fallback terms (layers predicted without kernel decomposition).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "models/prediction_plan.h"

namespace gpuperf::models {

/** One plan term's contribution to a prediction. */
struct TermContribution {
  std::size_t layer = 0;    // owning layer's index in the plan
  std::string layer_label;  // owning layer's name ("" for unlabeled plans)
  int cluster_id = -1;      // kernel cluster; -1 = layer-wise fallback
  double raw_us = 0;        // the term's TermUs value
  double scaled_us = 0;     // raw_us * scale_a * scale_b
};

/** One layer's contribution: the exact addend the fold accumulates. */
struct LayerContribution {
  std::size_t index = 0;
  std::string label;
  double us = 0;     // subtotal * scale_a * scale_b, bit-exact
  double share = 0;  // us / total_us (0 when the total is 0)
};

/** One kernel cluster's contribution, summed across layers. */
struct ClusterContribution {
  int cluster_id = -1;  // -1 = layer-wise fallback terms
  std::uint64_t terms = 0;
  double us = 0;     // sum of member terms' scaled_us, plan order
  double share = 0;  // us / total_us (0 when the total is 0)
};

/** A prediction decomposed along every axis the plan records. */
struct PredictionBreakdown {
  double total_us = 0;  // bit-identical to plan.EvalUs(batch)
  std::vector<LayerContribution> layers;      // plan order
  std::vector<ClusterContribution> clusters;  // ascending cluster_id
  std::vector<TermContribution> terms;        // plan order
};

/** Decomposes `plan.EvalUs(batch)` without changing its value. */
PredictionBreakdown ExplainPlan(const PredictionPlan& plan,
                                std::int64_t batch);

/** One cluster's slice of an observed-minus-predicted residual. */
struct ResidualAttribution {
  int cluster_id = -1;
  double share = 0;        // the cluster's share of the prediction
  double residual_us = 0;  // (observed - predicted) * share
};

/**
 * Splits `observed_us - breakdown.total_us` across the breakdown's
 * clusters by prediction share, in ascending cluster_id order. A zero
 * total (nothing to apportion by) yields an empty vector.
 */
std::vector<ResidualAttribution> AttributeResiduals(
    const PredictionBreakdown& breakdown, double observed_us);

}  // namespace gpuperf::models

#endif  // GPUPERF_MODELS_EXPLAIN_H_
