// The calibration kernel behind the host slowdown (see bench.h). Its
// inputs are fixed and built once; its work never calls gpuperf, so a
// change to the libraries cannot move it. Its mix follows what slows
// together with the workloads on a shared core: integer work with high
// instruction-level parallelism, hash lookups, a branchy floating-point
// loop, and a sort.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kIntegerIterations = 1'200'000;
constexpr int kTableSize = 4096;
constexpr int kLookupRepeats = 40;
constexpr int kFloatRepeats = 120;
constexpr int kSortSize = 8192;

struct CalibrationData {
  std::vector<std::uint64_t> keys;
  std::unordered_map<std::uint64_t, double> table;
  std::vector<double> weights;
  std::vector<std::uint32_t> unsorted;
};

const CalibrationData& Data() {
  static const CalibrationData data = [] {
    CalibrationData d;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < kTableSize; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      d.keys.push_back(x >> 16);
      d.table[x >> 16] = 0.5 * i;
      d.weights.push_back(1.0 + 0.01 * (i % 17));
    }
    for (int i = 0; i < kSortSize; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      d.unsorted.push_back(static_cast<std::uint32_t>(x >> 32));
    }
    return d;
  }();
  return data;
}

std::uint64_t CalibrationWork(const CalibrationData& d) {
  // Six independent integer chains, seeded from the data so nothing folds.
  std::uint64_t a = d.keys[0], b = d.keys[1], c = d.keys[2], e = d.keys[3],
                f = d.keys[4], g = d.keys[5];
  for (int i = 0; i < kIntegerIterations; ++i) {
    a += b ^ static_cast<std::uint64_t>(i);
    b += c >> 1;
    c ^= e + static_cast<std::uint64_t>(i);
    e += f << 1;
    f ^= g + a;
    g += a >> 3;
  }
  std::uint64_t acc = a + b + c + e + f + g;
  // Hash lookups; odd repeats probe keys that are mostly absent.
  double found = 0;
  for (int r = 0; r < kLookupRepeats; ++r) {
    for (std::uint64_t key : d.keys) {
      const auto it = d.table.find(key + (r & 1));
      if (it != d.table.end()) found += it->second;
    }
  }
  // A sequential floating-point sum with data-dependent branches.
  double sum = 0;
  for (int r = 0; r < kFloatRepeats; ++r) {
    for (std::size_t i = 0; i < d.weights.size(); ++i) {
      sum += d.weights[i] * ((i & 3) != 0 ? 1.5 : 0.5);
      if (sum > 1e12) sum = -sum;
    }
  }
  std::vector<std::uint32_t> sorted = d.unsorted;
  std::sort(sorted.begin(), sorted.end());
  return acc + static_cast<std::uint64_t>(found + sum) + sorted[kSortSize / 2];
}

}  // namespace

double CalibrationS() {
  const CalibrationData& data = Data();
  const double start = NowS();
  volatile std::uint64_t sink = CalibrationWork(data);
  static_cast<void>(sink);
  return NowS() - start;
}

}  // namespace perfbench
