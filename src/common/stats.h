#ifndef GPUPERF_COMMON_STATS_H_
#define GPUPERF_COMMON_STATS_H_

/**
 * @file
 * Summary statistics and the error metrics used throughout the paper.
 *
 * The paper reports "average error" as the mean absolute percentage error
 * (MAPE) of predicted vs measured times, and visualizes model quality as an
 * "S-curve": predicted/measured ratios sorted ascending (Figures 11-14).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace gpuperf {

/** Arithmetic mean; 0 for empty input. */
double Mean(const std::vector<double>& values);

/** Sample standard deviation (n-1 denominator); 0 for n < 2. */
double StdDev(const std::vector<double>& values);

/** Geometric mean; requires strictly positive values. */
double GeoMean(const std::vector<double>& values);

/**
 * Where percentile p in [0, 100] falls among `count` sorted values: the
 * percentile interpolates between the sorted values at `lo` and `hi`.
 * Percentile, SelectPercentiles and RunningPercentile all go through
 * it, so they agree bit for bit.
 */
struct PercentileRank {
  std::size_t lo;  // sorted index at or below the rank
  std::size_t hi;  // lo + 1, or lo when lo is the last index
  double frac;     // weight of the value at hi

  /** The percentile, given the sorted values at `lo` and `hi`. */
  double Interpolate(double lo_value, double hi_value) const {
    return lo_value * (1.0 - frac) + hi_value * frac;
  }
};

/** The rank of percentile `p` among `count` > 0 values (CHECKed, like
 *  0 <= p <= 100). */
PercentileRank RankOfPercentile(std::size_t count, double p);

/**
 * Linear-interpolated percentile, p in [0, 100]. Requires a non-empty
 * input with no NaNs (both are programmer-error CHECKs).
 */
double Percentile(std::vector<double> values, double p);

/**
 * Percentile(*values, p) for each p of the ascending `ps`, bit for bit,
 * by selection instead of a full sort: one std::nth_element per rank
 * over a shrinking suffix, then the minimum above it. Reorders
 * `*values`; same requirements as Percentile.
 */
std::vector<double> SelectPercentiles(std::vector<double>* values,
                                      const std::vector<double>& ps);

/**
 * Percentile(values, p) of a growing multiset, kept current as values
 * arrive: two heaps split at the rank's `lo`, so the value at `lo` is the
 * lower heap's maximum and the value at `hi` the upper heap's minimum.
 * Add costs O(log n), Value O(1), and Value is bit-identical to
 * Percentile over every value added so far.
 */
class RunningPercentile {
 public:
  /** Tracks percentile `p` in [0, 100]. */
  explicit RunningPercentile(double p);

  /** Adds one value (not NaN). */
  void Add(double value);

  /** Values added so far. */
  std::size_t size() const { return lower_.size() + upper_.size(); }

  /** The percentile of the values added so far (size() > 0). */
  double Value() const;

 private:
  double p_;
  std::priority_queue<double> lower_;  // the lo + 1 smallest values
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      upper_;  // the rest
};

/**
 * Interpolated quantile of a fixed-bucket histogram, p in [0, 100] —
 * the estimator behind obs::MetricsRegistry's CSV p50/p95/p99 rows
 * (same linear-within-bucket scheme as Prometheus histogram_quantile).
 *
 * `upper_bounds` are the finite, strictly ascending bucket bounds;
 * `counts` are per-bucket counts with one extra overflow entry, so
 * counts.size() == upper_bounds.size() + 1. The first bucket's lower
 * bound is 0 (the histograms here hold non-negative times). A quantile
 * landing in the overflow bucket clamps to the last finite bound; an
 * empty histogram returns 0.
 */
double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double p);

/** |pred - actual| / actual for a single pair. Requires actual != 0. */
double RelativeError(double predicted, double actual);

/** Mean absolute percentage error over paired vectors. */
double Mape(const std::vector<double>& predicted,
            const std::vector<double>& actual);

/** Pearson correlation coefficient; 0 if either side is constant. */
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/**
 * One point of an S-curve (Figures 11-14): the percentage through the
 * sorted test set and the predicted/measured ratio at that position.
 */
struct SCurvePoint {
  double percent;  // 0..100 position within the sorted test set
  double ratio;    // predicted / measured
};

/** Builds the sorted predicted/measured S-curve. */
std::vector<SCurvePoint> SCurve(const std::vector<double>& predicted,
                                const std::vector<double>& actual);

/** Fraction of pairs whose relative error is below `threshold`. */
double FractionWithin(const std::vector<double>& predicted,
                      const std::vector<double>& actual, double threshold);

}  // namespace gpuperf

#endif  // GPUPERF_COMMON_STATS_H_
