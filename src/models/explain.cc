#include "models/explain.h"

#include <map>
#include <string>

#include "common/logging.h"

namespace gpuperf::models {

namespace {

/**
 * Records each term and layer addend while a BatchSum folds them; plan
 * layer i is labelled with the network's layer i.
 */
struct ExplainSink {
  BatchSum sum;
  const std::vector<dnn::Layer>& network_layers;
  PredictionBreakdown& out;
  std::map<int, ClusterContribution> clusters{};  // sorted: deterministic
  double scale_a = 1.0;  // the open layer's scales
  double scale_b = 1.0;

  /** Closes the open layer, recording its exact addend. */
  void CloseLayer() {
    const double addend = sum.CloseLayer();
    if (!out.layers.empty()) out.layers.back().us = addend;
  }

  void BeginLayer(double a, double b) {
    CloseLayer();
    sum.BeginLayer(a, b);
    scale_a = a;
    scale_b = b;
    const std::size_t index = out.layers.size();
    out.layers.push_back({index, network_layers[index].name});
  }

  void AddTerm(std::int64_t per_sample_value, double slope, double intercept,
               int cluster_id) {
    const double raw =
        sum.AddTerm(per_sample_value, slope, intercept, cluster_id);
    // Scaling each term re-associates one multiply; the exact addend
    // lives in the layer contribution.
    const LayerContribution& layer = out.layers.back();
    const double scaled = raw * scale_a * scale_b;
    out.terms.push_back({layer.index, layer.label, cluster_id, raw, scaled});
    ClusterContribution& cc = clusters[cluster_id];
    cc.cluster_id = cluster_id;
    cc.terms += 1;
    cc.us += scaled;
  }
};

}  // namespace

PredictionBreakdown ExplainPlan(const PredictionPlan& plan,
                                const dnn::Network& network,
                                std::int64_t batch) {
  GP_CHECK_EQ(plan.layer_count(), network.layers().size())
      << "ExplainPlan: the plan was not compiled from network "
      << network.name();
  PredictionBreakdown out;
  out.layers.reserve(plan.layer_count());
  out.terms.reserve(plan.term_count());
  ExplainSink sink{BatchSum(batch), network.layers(), out};
  plan.Replay(sink);
  sink.CloseLayer();
  const double total = sink.sum.TotalUs();
  out.total_us = total;
  for (LayerContribution& lc : out.layers) {
    lc.share = total != 0.0 ? lc.us / total : 0.0;
  }
  out.clusters.reserve(sink.clusters.size());
  for (auto& [id, cc] : sink.clusters) {
    (void)id;
    cc.share = total != 0.0 ? cc.us / total : 0.0;
    out.clusters.push_back(cc);
  }
  return out;
}

std::vector<ResidualAttribution> AttributeResiduals(
    const PredictionBreakdown& breakdown, double observed_us) {
  std::vector<ResidualAttribution> out;
  if (breakdown.total_us == 0.0) return out;
  const double residual = observed_us - breakdown.total_us;
  out.reserve(breakdown.clusters.size());
  for (const ClusterContribution& cc : breakdown.clusters) {
    ResidualAttribution ra;
    ra.cluster_id = cc.cluster_id;
    ra.share = cc.share;
    ra.residual_us = residual * cc.share;
    out.push_back(ra);
  }
  return out;
}

}  // namespace gpuperf::models
