// Exact answers for every QueryOp, computed from the benchmark's own copy of
// the generated events and never from the program. Values are integers in
// [0, universe), so each query costs O(universe · log n) through per-value
// position lists, whatever the range length. Only the first `visible`
// events count: the prefix the benchmark has handed to the store so far.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/window.h"

namespace perfbench {

class Oracle {
 public:
  // `events` must be in non-decreasing timestamp order with integer values
  // in [0, universe), and must outlive the oracle.
  Oracle(const std::vector<ss::Event>* events, uint32_t universe);

  void SetVisible(size_t n) { visible_ = n; }
  size_t visible() const { return visible_; }

  // Index range [first, last) of visible events with t1 <= ts <= t2.
  std::pair<size_t, size_t> Range(ss::Timestamp t1, ss::Timestamp t2) const;

  uint64_t Count(ss::Timestamp t1, ss::Timestamp t2) const;
  double Sum(ss::Timestamp t1, ss::Timestamp t2) const;
  // Min/max over a non-empty range.
  double Min(ss::Timestamp t1, ss::Timestamp t2) const;
  double Max(ss::Timestamp t1, ss::Timestamp t2) const;
  uint64_t Frequency(double value, ss::Timestamp t1, ss::Timestamp t2) const;
  uint64_t Distinct(ss::Timestamp t1, ss::Timestamp t2) const;
  // Events in range whose value lies in [lo, hi).
  uint64_t ValueRangeCount(double lo, double hi, ss::Timestamp t1, ss::Timestamp t2) const;
  // The q-quantile as the inverse empirical CDF: the smallest value x with
  // #(values <= x) >= q·n (n > 0).
  double Quantile(double q, ss::Timestamp t1, ss::Timestamp t2) const;

 private:
  uint64_t CountIn(uint32_t value, size_t first, size_t last) const;

  const std::vector<ss::Event>* events_;
  uint32_t universe_;
  size_t visible_ = 0;
  std::vector<double> prefix_sum_;                // prefix_sum_[i] = Σ values[0, i)
  std::vector<std::vector<uint32_t>> positions_;  // per value: ascending indices
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
