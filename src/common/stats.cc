#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/logging.h"

namespace gpuperf {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double GeoMean(const std::vector<double>& values) {
  GP_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    GP_CHECK_GT(v, 0.0);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

PercentileRank RankOfPercentile(std::size_t count, double p) {
  GP_CHECK_GT(count, 0u);
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  return {lo, std::min(lo + 1, count - 1), rank - static_cast<double>(lo)};
}

namespace {

void CheckNoNan(const std::vector<double>& values) {
  for (double v : values) {
    GP_CHECK(!std::isnan(v)) << "Percentile input contains NaN";
  }
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  GP_CHECK(!values.empty());
  const PercentileRank rank = RankOfPercentile(values.size(), p);
  CheckNoNan(values);
  std::sort(values.begin(), values.end());
  return rank.Interpolate(values[rank.lo], values[rank.hi]);
}

std::vector<double> SelectPercentiles(std::vector<double>* values,
                                      const std::vector<double>& ps) {
  GP_CHECK(!values->empty());
  CheckNoNan(*values);
  std::vector<double> result;
  result.reserve(ps.size());
  // Every value before `unplaced` is in its sorted position and no
  // larger than any value from `unplaced` on.
  auto unplaced = values->begin();
  double previous_p = 0;
  for (double p : ps) {
    GP_CHECK_GE(p, previous_p) << "percentiles must be ascending";
    previous_p = p;
    const PercentileRank rank = RankOfPercentile(values->size(), p);
    const auto lo = values->begin() + static_cast<std::ptrdiff_t>(rank.lo);
    if (lo >= unplaced) {
      std::nth_element(unplaced, lo, values->end());
      unplaced = lo + 1;
    }
    const double hi_value =
        rank.hi == rank.lo ? *lo : *std::min_element(lo + 1, values->end());
    result.push_back(rank.Interpolate(*lo, hi_value));
  }
  return result;
}

RunningPercentile::RunningPercentile(double p) : p_(p) {
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
}

void RunningPercentile::Add(double value) {
  GP_CHECK(!std::isnan(value)) << "Percentile input contains NaN";
  if (lower_.empty() || value <= lower_.top()) {
    lower_.push(value);
  } else {
    upper_.push(value);
  }
  // Rebalance so the lower heap holds exactly the lo + 1 smallest; lo
  // moves by at most one per added value.
  const std::size_t want = RankOfPercentile(size(), p_).lo + 1;
  while (lower_.size() > want) {
    upper_.push(lower_.top());
    lower_.pop();
  }
  while (lower_.size() < want) {
    lower_.push(upper_.top());
    upper_.pop();
  }
}

double RunningPercentile::Value() const {
  const PercentileRank rank = RankOfPercentile(size(), p_);
  const double lo_value = lower_.top();
  return rank.Interpolate(lo_value,
                          rank.hi == rank.lo ? lo_value : upper_.top());
}

double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double p) {
  GP_CHECK(!upper_bounds.empty());
  GP_CHECK_EQ(counts.size(), upper_bounds.size() + 1);
  GP_CHECK_GE(p, 0.0);
  GP_CHECK_LE(p, 100.0);
  for (std::size_t i = 0; i < upper_bounds.size(); ++i) {
    GP_CHECK(std::isfinite(upper_bounds[i]));
    if (i > 0) {
      GP_CHECK_LT(upper_bounds[i - 1], upper_bounds[i]);
    }
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  // The p-quantile sits at rank p/100 * total observations; walk the
  // cumulative counts to its bucket and interpolate linearly inside.
  const double rank = p / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket >= rank && in_bucket > 0) {
      if (i == upper_bounds.size()) {
        // Overflow bucket: no finite upper edge to interpolate toward.
        return upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : upper_bounds[i - 1];
      const double upper = upper_bounds[i];
      const double within = (rank - cumulative) / in_bucket;
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  // rank == total but trailing buckets are empty: the largest
  // observation lives in the last non-empty bucket, already handled
  // above; reaching here means every count was zero after `total > 0`,
  // which cannot happen.
  GP_CHECK(false);
  return 0.0;
}

double RelativeError(double predicted, double actual) {
  GP_CHECK_NE(actual, 0.0);
  return std::fabs(predicted - actual) / std::fabs(actual);
}

double Mape(const std::vector<double>& predicted,
            const std::vector<double>& actual) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  GP_CHECK(!predicted.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    sum += RelativeError(predicted[i], actual[i]);
  }
  return sum / static_cast<double>(predicted.size());
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  GP_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  double mx = Mean(x);
  double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<SCurvePoint> SCurve(const std::vector<double>& predicted,
                                const std::vector<double>& actual) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  std::vector<double> ratios;
  ratios.reserve(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    GP_CHECK_GT(actual[i], 0.0);
    ratios.push_back(predicted[i] / actual[i]);
  }
  std::sort(ratios.begin(), ratios.end());
  std::vector<SCurvePoint> curve;
  curve.reserve(ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    double percent =
        ratios.size() == 1
            ? 100.0
            : 100.0 * static_cast<double>(i) /
                  static_cast<double>(ratios.size() - 1);
    curve.push_back({percent, ratios[i]});
  }
  return curve;
}

double FractionWithin(const std::vector<double>& predicted,
                      const std::vector<double>& actual, double threshold) {
  GP_CHECK_EQ(predicted.size(), actual.size());
  if (predicted.empty()) return 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (RelativeError(predicted[i], actual[i]) < threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(predicted.size());
}

}  // namespace gpuperf
