#include "models/predictor_stack.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace gpuperf::models {
namespace {

/** Process-wide tier counters, aggregated across every stack. */
struct PredictorMetrics {
  obs::Counter& kw_hits;
  obs::Counter& lw_fallbacks;
  obs::Counter& e2e_fallbacks;
  obs::Counter& unanswered;

  static PredictorMetrics& Get() {
    static PredictorMetrics* const kMetrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new PredictorMetrics{
          registry.counter("gpuperf_predictor_kw_hits"),
          registry.counter("gpuperf_predictor_lw_fallbacks"),
          registry.counter("gpuperf_predictor_e2e_fallbacks"),
          registry.counter("gpuperf_predictor_unanswered")};
    }();
    return *kMetrics;
  }
};

}  // namespace

const char* PredictorTierName(PredictorTier tier) {
  switch (tier) {
    case PredictorTier::kKw: return "KW";
    case PredictorTier::kLw: return "LW";
    case PredictorTier::kE2e: return "E2E";
    case PredictorTier::kNone: return "none";
  }
  GP_CHECK(false) << "unhandled PredictorTier";
  return "";
}

double PredictorStackCounters::DegradedFraction() const {
  const std::uint64_t answered = kw_hits + lw_fallbacks + e2e_fallbacks;
  if (answered == 0) return 0.0;
  return static_cast<double>(lw_fallbacks + e2e_fallbacks) /
         static_cast<double>(answered);
}

void PredictorStack::SetKw(KwModel kw) {
  kw_ = std::make_shared<const KwModel>(std::move(kw));
}

void PredictorStack::SetKw(std::shared_ptr<const KwModel> kw) {
  kw_ = std::move(kw);
}

void PredictorStack::SetLw(LwModel lw) {
  lw_ = std::move(lw);
  lw_gpus_.clear();
  for (const auto& [key, fit] : lw_->fits()) {
    (void)fit;
    lw_gpus_.insert(key.first);
  }
}

void PredictorStack::SetE2e(E2eModel e2e) { e2e_ = std::move(e2e); }

StatusOr<double> PredictorStack::TryPredictUs(const dnn::Network& network,
                                              const gpuexec::GpuSpec& gpu,
                                              std::int64_t batch,
                                              PredictorTier* tier) const {
  if (tier != nullptr) *tier = PredictorTier::kNone;
  PredictorMetrics& global = PredictorMetrics::Get();
  if (kw_ != nullptr && kw_->CoverageFor(network, gpu.name).Full()) {
    kw_hits_.Increment();
    global.kw_hits.Increment();
    if (tier != nullptr) *tier = PredictorTier::kKw;
    return kw_->PredictUs(network, gpu, batch);
  }
  if (lw_.has_value() && lw_gpus_.count(gpu.name) > 0) {
    lw_fallbacks_.Increment();
    global.lw_fallbacks.Increment();
    if (tier != nullptr) *tier = PredictorTier::kLw;
    return lw_->PredictUs(network, gpu, batch);
  }
  if (e2e_.has_value() && e2e_->TryFitFor(gpu.name) != nullptr) {
    e2e_fallbacks_.Increment();
    global.e2e_fallbacks.Increment();
    if (tier != nullptr) *tier = PredictorTier::kE2e;
    return e2e_->PredictUs(network, gpu, batch);
  }
  unanswered_.Increment();
  global.unanswered.Increment();
  return FailedPreconditionError(
      "no predictor tier covers network '" + network.name() + "' on GPU '" +
      gpu.name + "' (installed: " + (has_kw() ? "KW " : "") +
      (has_lw() ? "LW " : "") + (has_e2e() ? "E2E" : "") +
      "); retrain or extend the measurement campaign");
}

double PredictorStack::PredictUs(const dnn::Network& network,
                                 const gpuexec::GpuSpec& gpu,
                                 std::int64_t batch) const {
  StatusOr<double> prediction = TryPredictUs(network, gpu, batch);
  return prediction.ok() ? *prediction : 0.0;
}

void PredictorStack::PredictMany(std::span<const PredictQuery> queries,
                                 std::span<double> out_us) const {
  PredictManySwept(queries, out_us, nullptr);
}

void PredictorStack::PredictManyWithTiers(
    std::span<const PredictQuery> queries, std::span<double> out_us,
    std::span<PredictorTier> tiers) const {
  GP_CHECK_EQ(queries.size(), tiers.size());
  PredictManySwept(queries, out_us, tiers.data());
}

void PredictorStack::PredictManySwept(std::span<const PredictQuery> queries,
                                      std::span<double> out_us,
                                      PredictorTier* tiers) const {
  GP_CHECK_EQ(queries.size(), out_us.size());
  // One KW generation snapshot per sweep, not per query: a concurrent
  // BundleRegistry hot-swap costs this sweep a single shared_ptr copy,
  // and the local reference keeps the old generation (and its compiled
  // plans) alive until the sweep finishes.
  const std::shared_ptr<const KwModel> kw_snapshot = kw_;
  const KwModel* kw = kw_snapshot.get();

  std::uint64_t tally[4] = {0, 0, 0, 0};
  internal::ForEachRun(queries, [&](std::span<const PredictQuery> run,
                                    std::size_t first) {
    // Tier selection depends only on the (network, GPU) pair, so it —
    // and the KW plan — is resolved once per run.
    const dnn::Network& network = *run.front().network;
    const gpuexec::GpuSpec& gpu = *run.front().gpu;
    const std::span<double> out = out_us.subspan(first, run.size());
    PredictorTier tier = PredictorTier::kNone;
    if (kw != nullptr && kw->CoverageFor(network, gpu.name).Full()) {
      tier = PredictorTier::kKw;
      internal::EvalRun(*kw->PlanFor(network, gpu), run, out);
    } else if (lw_.has_value() && lw_gpus_.count(gpu.name) > 0) {
      tier = PredictorTier::kLw;
      for (std::size_t i = 0; i < run.size(); ++i) {
        out[i] = lw_->PredictUs(network, gpu, run[i].batch);
      }
    } else if (e2e_.has_value() && e2e_->TryFitFor(gpu.name) != nullptr) {
      tier = PredictorTier::kE2e;
      for (std::size_t i = 0; i < run.size(); ++i) {
        out[i] = e2e_->PredictUs(network, gpu, run[i].batch);
      }
    } else {
      std::fill(out.begin(), out.end(), 0.0);  // as PredictUs answers
    }
    if (tiers != nullptr) std::fill_n(tiers + first, run.size(), tier);
    tally[static_cast<int>(tier)] += run.size();
  });

  // Counters carry the same totals as per-query calls, bumped once per
  // sweep with the aggregated tallies.
  PredictorMetrics& global = PredictorMetrics::Get();
  const std::uint64_t kw_n = tally[static_cast<int>(PredictorTier::kKw)];
  const std::uint64_t lw_n = tally[static_cast<int>(PredictorTier::kLw)];
  const std::uint64_t e2e_n = tally[static_cast<int>(PredictorTier::kE2e)];
  const std::uint64_t none_n = tally[static_cast<int>(PredictorTier::kNone)];
  if (kw_n > 0) {
    kw_hits_.Increment(kw_n);
    global.kw_hits.Increment(kw_n);
    internal::CountPlanQueries(kw_n);
  }
  if (lw_n > 0) {
    lw_fallbacks_.Increment(lw_n);
    global.lw_fallbacks.Increment(lw_n);
  }
  if (e2e_n > 0) {
    e2e_fallbacks_.Increment(e2e_n);
    global.e2e_fallbacks.Increment(e2e_n);
  }
  if (none_n > 0) {
    unanswered_.Increment(none_n);
    global.unanswered.Increment(none_n);
  }
}

PredictorStackCounters PredictorStack::counters() const {
  PredictorStackCounters counters;
  counters.kw_hits = kw_hits_.Value();
  counters.lw_fallbacks = lw_fallbacks_.Value();
  counters.e2e_fallbacks = e2e_fallbacks_.Value();
  counters.unanswered = unanswered_.Value();
  return counters;
}

void PredictorStack::ResetCounters() {
  kw_hits_.Reset();
  lw_fallbacks_.Reset();
  e2e_fallbacks_.Reset();
  unanswered_.Reset();
}

}  // namespace gpuperf::models
