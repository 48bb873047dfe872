// Small helpers shared by the perfbench workloads: clocks, order statistics,
// a self-contained seeded generator (so inputs do not change when the
// program's own random code does), process resource readings, and deltas of
// the program's MetricRegistry instruments.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated q-quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
inline double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// SplitMix64: the benchmark's own generator for inputs and query plans.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1]: safe as a log() or pow() argument.
  double Uniform() { return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53; }
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
  }

 private:
  uint64_t x_;
};

// Derives an independent seed for one input (stream, query plan, ...).
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(seed * 0x100000001b3ULL + salt).Next();
}

// Resident set size now and its high-water mark, in bytes (/proc/self/status).
struct Rss {
  uint64_t current = 0;
  uint64_t peak = 0;
};
Rss ReadRss();

// Bytes this process has passed to write(2) and friends (/proc/self/io wchar).
uint64_t ReadWriteChars();

// Total size of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

// Snapshot of named MetricRegistry instruments; Delta() reports the change
// since the snapshot. Counters are keyed "name{label}", histograms report
// their count and sum.
class RegistryDelta {
 public:
  struct Hist {
    uint64_t count = 0;
    uint64_t sum = 0;
    double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  };
  void Start();
  // Freezes the delta: later reads report Start()..Stop().
  void Stop();
  uint64_t Counter(const std::string& name, const std::string& label = "") const;
  Hist Histogram(const std::string& name, const std::string& label = "") const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Hist> hists_;
  bool stopped_ = false;
  std::map<std::string, uint64_t> end_counters_;
  std::map<std::string, Hist> end_hists_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
