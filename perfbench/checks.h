// Checks the program's answers against the oracle.
//
//   - An answer marked exact must equal the oracle.
//   - count, sum, mean, top-k and fleet count intervals are gated: per run,
//     the share that covers the oracle must not fall below a binomial lower
//     bound of the nominal rate.
//   - min/max intervals that are not points must contain the truth (their
//     brackets are sound by construction).
//   - A min/max point interval that excludes the truth, and an existence
//     estimate below its own ci_lo, are the two faults a run counts as
//     failed operations (README, "Failed operations").
//   - frequency, quantile, distinct, value-range and fleet sum intervals and
//     inexact existence answers are tallied and reported, not gated: they
//     miss today (README, "Known faults").
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "src/core/query.h"

namespace perfbench {

// What a run reports: correctness, operation tallies and its metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Error(const std::string& message);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

class AnswerChecker {
 public:
  explicit AnswerChecker(Report* report) : report_(report) {}

  // One query on one stream. Returns true when the answer shows one of the
  // two faults counted as failed.
  bool Check(const StreamInput& stream, const ss::QuerySpec& spec, const ss::QueryResult& r);
  // One fleet query over `streams`.
  void CheckFleet(std::span<StreamInput* const> streams, const ss::QuerySpec& spec,
                  const ss::QueryResult& r);
  // Applies the coverage gates and prints the coverage table.
  void Finish();

  // Lower end of the central (1 - 2·alpha) binomial band: the smallest k
  // with P[Binomial(n, p) < k] <= alpha.
  static uint64_t BinomialLowerBound(uint64_t n, double p, double alpha);

 private:
  struct Tally {
    uint64_t n = 0;
    uint64_t covered = 0;
    bool gated = false;
  };
  void Tallied(const std::string& op, bool gated, bool covered);
  void Exact(const std::string& what, double truth, double got);

  Report* report_;
  std::map<std::string, Tally> tallies_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
