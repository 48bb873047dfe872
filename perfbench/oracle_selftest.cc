// Self-test of the benchmark's oracle and coverage gate: every Oracle
// answer is compared with a brute-force scan of small random inputs
// (including duplicate values, ranges outside the data and partial
// visibility), and the binomial floor with a direct tail sum.
//
//   python3 perfbench/run.py --selftest     (or ctest in the build directory)
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/oracle.h"
#include "perfbench/util.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int trial) {
  if (!ok && failures++ < 20) {
    std::printf("FAIL trial %d: %s\n", trial, what);
  }
}

// Brute-force answers over events[0, visible) with t1 <= ts <= t2.
struct Brute {
  std::vector<double> values;
};

Brute Select(const std::vector<ss::Event>& events, size_t visible, ss::Timestamp t1,
             ss::Timestamp t2) {
  Brute b;
  for (size_t i = 0; i < visible; ++i) {
    if (events[i].ts >= t1 && events[i].ts <= t2) {
      b.values.push_back(events[i].value);
    }
  }
  return b;
}

void CheckOracle(int trial, perfbench::SplitMix& rng) {
  const uint32_t universe = 1 + static_cast<uint32_t>(rng.Below(40));
  const size_t n = 1 + rng.Below(200);
  std::vector<ss::Event> events;
  ss::Timestamp ts = static_cast<ss::Timestamp>(rng.Below(50));
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<ss::Timestamp>(rng.Below(4));  // duplicates allowed
    events.push_back(ss::Event{ts, static_cast<double>(rng.Below(universe))});
  }
  perfbench::Oracle oracle(&events, universe);
  const size_t visible = rng.Below(n + 1);
  oracle.SetVisible(visible);
  for (int q = 0; q < 50; ++q) {
    ss::Timestamp t1 = static_cast<ss::Timestamp>(rng.Below(ts + 20)) - 10;
    ss::Timestamp t2 = t1 + static_cast<ss::Timestamp>(rng.Below(ts / 2 + 5));
    Brute b = Select(events, visible, t1, t2);
    std::map<double, uint64_t> freq;
    double sum = 0.0;
    for (double v : b.values) {
      ++freq[v];
      sum += v;
    }
    Expect(oracle.Count(t1, t2) == b.values.size(), "count", trial);
    Expect(oracle.Sum(t1, t2) == sum, "sum", trial);
    Expect(oracle.Distinct(t1, t2) == freq.size(), "distinct", trial);
    double probe = static_cast<double>(rng.Below(universe + 2)) - 1.0;
    Expect(oracle.Frequency(probe, t1, t2) == (freq.count(probe) ? freq[probe] : 0),
           "frequency", trial);
    Expect(oracle.Frequency(probe + 0.5, t1, t2) == 0, "frequency of a non-integer", trial);
    double lo = static_cast<double>(rng.Below(universe + 1)) - 0.5;
    double hi = lo + static_cast<double>(rng.Below(universe / 2 + 2));
    uint64_t in_range = 0;
    for (double v : b.values) {
      in_range += (v >= lo && v < hi) ? 1 : 0;
    }
    Expect(oracle.ValueRangeCount(lo, hi, t1, t2) == in_range, "value range count", trial);
    if (b.values.empty()) {
      continue;
    }
    std::vector<double> sorted = b.values;
    std::sort(sorted.begin(), sorted.end());
    Expect(oracle.Min(t1, t2) == sorted.front(), "min", trial);
    Expect(oracle.Max(t1, t2) == sorted.back(), "max", trial);
    for (double qq : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      // Inverse empirical CDF: smallest x with #(v <= x) >= q*n.
      size_t k = static_cast<size_t>(std::ceil(qq * sorted.size()));
      double expected = sorted[k == 0 ? 0 : k - 1];
      Expect(oracle.Quantile(qq, t1, t2) == expected, "quantile", trial);
    }
  }
}

void CheckBinomialFloor() {
  for (uint64_t n : {0, 1, 10, 57, 300, 2000}) {
    for (double alpha : {1e-6, 1e-3, 0.05}) {
      uint64_t k = perfbench::AnswerChecker::BinomialLowerBound(n, 0.95, alpha);
      // P[X < k] <= alpha < P[X < k + 1], from a direct tail sum.
      auto below = [&](uint64_t m) {
        double p = 0.0;
        for (uint64_t j = 0; j < m && j <= n; ++j) {
          p += std::exp(std::lgamma(n + 1.0) - std::lgamma(j + 1.0) - std::lgamma(n - j + 1.0) +
                        j * std::log(0.95) + (n - j) * std::log(0.05));
        }
        return p;
      };
      Expect(below(k) <= alpha * (1 + 1e-9), "binomial floor too high", static_cast<int>(n));
      Expect(k == n || below(k + 1) > alpha, "binomial floor too low", static_cast<int>(n));
    }
  }
}

}  // namespace

int main() {
  perfbench::SplitMix rng(20261019);
  for (int trial = 0; trial < 2000; ++trial) {
    CheckOracle(trial, rng);
  }
  CheckBinomialFloor();
  std::printf("oracle self-test: %s (%d failures)\n", failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
