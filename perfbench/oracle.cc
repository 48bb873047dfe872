#include "perfbench/oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Oracle::Oracle(const std::vector<ss::Event>* events, uint32_t universe)
    : events_(events), universe_(universe), positions_(universe) {
  prefix_sum_.resize(events->size() + 1, 0.0);
  for (size_t i = 0; i < events->size(); ++i) {
    double v = (*events)[i].value;
    prefix_sum_[i + 1] = prefix_sum_[i] + v;
    positions_[static_cast<uint32_t>(v)].push_back(static_cast<uint32_t>(i));
  }
}

std::pair<size_t, size_t> Oracle::Range(ss::Timestamp t1, ss::Timestamp t2) const {
  auto begin = events_->begin();
  auto end = begin + static_cast<std::ptrdiff_t>(visible_);
  auto first = std::lower_bound(begin, end, t1,
                                [](const ss::Event& e, ss::Timestamp t) { return e.ts < t; });
  auto last = std::upper_bound(first, end, t2,
                               [](ss::Timestamp t, const ss::Event& e) { return t < e.ts; });
  return {static_cast<size_t>(first - begin), static_cast<size_t>(last - begin)};
}

uint64_t Oracle::CountIn(uint32_t value, size_t first, size_t last) const {
  const std::vector<uint32_t>& p = positions_[value];
  auto lo = std::lower_bound(p.begin(), p.end(), static_cast<uint32_t>(first));
  auto hi = std::lower_bound(lo, p.end(), static_cast<uint32_t>(last));
  return static_cast<uint64_t>(hi - lo);
}

uint64_t Oracle::Count(ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  return last - first;
}

double Oracle::Sum(ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  return prefix_sum_[last] - prefix_sum_[first];
}

double Oracle::Min(ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  for (uint32_t v = 0; v < universe_; ++v) {
    if (CountIn(v, first, last) > 0) {
      return v;
    }
  }
  return NAN;
}

double Oracle::Max(ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  for (uint32_t v = universe_; v-- > 0;) {
    if (CountIn(v, first, last) > 0) {
      return v;
    }
  }
  return NAN;
}

uint64_t Oracle::Frequency(double value, ss::Timestamp t1, ss::Timestamp t2) const {
  if (!(value >= 0.0) || value >= universe_ || value != std::floor(value)) {
    return 0;
  }
  auto [first, last] = Range(t1, t2);
  return CountIn(static_cast<uint32_t>(value), first, last);
}

uint64_t Oracle::Distinct(ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  uint64_t distinct = 0;
  for (uint32_t v = 0; v < universe_; ++v) {
    distinct += CountIn(v, first, last) > 0 ? 1 : 0;
  }
  return distinct;
}

uint64_t Oracle::ValueRangeCount(double lo, double hi, ss::Timestamp t1,
                                 ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  uint64_t n = 0;
  for (uint32_t v = 0; v < universe_; ++v) {
    if (v >= lo && v < hi) {
      n += CountIn(v, first, last);
    }
  }
  return n;
}

double Oracle::Quantile(double q, ss::Timestamp t1, ss::Timestamp t2) const {
  auto [first, last] = Range(t1, t2);
  double target = q * static_cast<double>(last - first);
  uint64_t at_most = 0;
  for (uint32_t v = 0; v < universe_; ++v) {
    at_most += CountIn(v, first, last);
    if (at_most > 0 && static_cast<double>(at_most) >= target) {
      return v;
    }
  }
  return NAN;
}

}  // namespace perfbench
