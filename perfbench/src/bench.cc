#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

}  // namespace

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kOrigin)
      .count();
}

int Tracer::Begin(const char* name) {
  spans_.push_back({name, NowS(), 0, open_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int index) {
  spans_[index].end_s = NowS();
  open_ = spans_[index].parent;
}

void Tracer::Write(const Options& options) const {
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(getpid()) + ".csv";
  std::ofstream out(path);
  out << "name,start_s,end_s,parent\n";
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line), "%s,%.9f,%.9f,%d\n", span.name,
                  span.start_s, span.end_s, span.parent);
    out << line;
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans_.size(),
               path.c_str());
}

std::vector<Phase> PhasesOf(const Tracer& tracer, const std::string& root) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_s - spans[i].start_s;
    self[i] += duration;
    if (spans[i].parent >= 0) self[spans[i].parent] -= duration;
  }
  // Spans are stored in start order, so a parent precedes its children.
  std::vector<int> phase_of(spans.size(), -1);
  std::vector<Phase> phases;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      if (root != spans[i].name) continue;
      phase_of[i] = static_cast<int>(phases.size());
      phases.push_back({spans[i].end_s - spans[i].start_s, {}});
    } else {
      phase_of[i] = phase_of[spans[i].parent];
    }
    if (phase_of[i] >= 0) phases[phase_of[i]].self_s[spans[i].name] += self[i];
  }
  return phases;
}

double MedianSelfS(const std::vector<Phase>& phases, const std::string& name) {
  std::vector<double> values;
  for (const Phase& phase : phases) {
    const auto it = phase.self_s.find(name);
    values.push_back(it == phase.self_s.end() ? 0 : it->second);
  }
  return values.empty() ? 0 : Median(values);
}

double MedianSharePct(const std::vector<Phase>& phases,
                      const std::string& name) {
  std::vector<double> values;
  for (const Phase& phase : phases) {
    const auto it = phase.self_s.find(name);
    values.push_back(it == phase.self_s.end()
                         ? 0
                         : 100 * it->second / phase.duration_s);
  }
  return values.empty() ? 0 : Median(values);
}

double TraceOverheadPct(const std::vector<double>& untraced_round_s,
                        const std::vector<double>& traced_round_s) {
  return 100 * (Median(traced_round_s) / Median(untraced_round_s) - 1);
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool AllFinitePositive(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v) || v <= 0) return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> RunRounds(double seconds, int min_rounds,
                              const std::function<void()>& round) {
  std::vector<double> slowdowns;
  double before_s = CalibrationS();
  const double start = NowS();
  for (int rounds = 0; rounds < min_rounds || NowS() - start < seconds;
       ++rounds) {
    round();
    const double after_s = CalibrationS();
    slowdowns.push_back(0.5 * (before_s + after_s) / kReferenceCalibrationS);
    before_s = after_s;
  }
  return slowdowns;
}

SetupTiming MedianSetupS(const std::function<void()>& setup) {
  std::vector<double> raw, reference;
  double before_s = CalibrationS();
  for (int i = 0; i < kSetups; ++i) {
    const double start = NowS();
    setup();
    const double duration = NowS() - start;
    const double after_s = CalibrationS();
    raw.push_back(duration);
    reference.push_back(duration * 2 * kReferenceCalibrationS /
                        (before_s + after_s));
    before_s = after_s;
  }
  return {Median(raw), Median(reference)};
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return NAN;
}

void CheckReference(const std::string& path,
                    const std::map<std::string, double>& actual,
                    Outcome& outcome) {
  std::map<std::string, double> reference;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double value = 0;
    if (fields >> key >> value) reference[key] = value;
  }
  for (const auto& [key, value] : actual) {
    const auto it = reference.find(key);
    const double expected = it != reference.end() ? it->second : NAN;
    char what[256];
    std::snprintf(what, sizeof(what), "reference %s: expected %.17g, got %.17g",
                  key.c_str(), expected, value);
    outcome.Check(std::fabs(value - expected) <= 1e-9 * std::fabs(expected),
                  what);
  }
}

}  // namespace perfbench
