// Temporal range-query engine (§5): walks the summary windows overlapping
// [t1, t2], takes exact unions from fully covered windows, statistical
// estimates from the (at most two) partially covered edge windows, weaves in
// landmark data exactly ("hollowing out" their spans from the proportional
// shares), and returns the maximum-likelihood answer with a confidence
// interval.
#ifndef SUMMARYSTORE_SRC_CORE_QUERY_H_
#define SUMMARYSTORE_SRC_CORE_QUERY_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/core/stream.h"
#include "src/obs/trace.h"

namespace ss {

enum class QueryOp : uint8_t {
  kCount = 0,
  kSum = 1,
  kMean = 2,
  kMin = 3,
  kMax = 4,
  kExistence = 5,  // membership of `value` (Bloom / counting Bloom)
  kFrequency = 6,  // occurrence count of `value` (CMS / counting Bloom)
  kDistinct = 7,   // distinct-value count (HyperLogLog)
  kQuantile = 8,   // approximate `quantile_q` quantile (KLL sketch)
  // Count of events whose value lies in [value_lo, value_hi) — a SQL-style
  // selection answered from the Histogram operator.
  kValueRangeCount = 9,
  // Heavy hitters: the `top_k` most frequent values in range, answered from
  // the space-saving operator with per-candidate frequency brackets
  // (tightened by the CMS when the stream maintains one).
  kTopK = 10,
};

const char* QueryOpName(QueryOp op);

struct QuerySpec {
  Timestamp t1 = 0;  // inclusive
  Timestamp t2 = 0;  // inclusive
  QueryOp op = QueryOp::kCount;
  double value = 0.0;       // kExistence / kFrequency operand
  double quantile_q = 0.5;  // kQuantile operand
  double value_lo = 0.0;    // kValueRangeCount operands: [value_lo, value_hi)
  double value_hi = 0.0;
  double confidence = 0.95;
  uint32_t top_k = 10;  // kTopK operand: number of candidates to return
  // Opt-in explain mode: the engine records a QueryTrace (windows scanned,
  // bytes fetched, cache hits/misses, CI width) into QueryResult::trace.
  bool collect_trace = false;
};

// One heavy-hitter candidate of a kTopK answer. [ci_lo, ci_hi] brackets the
// candidate's true in-range occurrence count.
struct TopKEntry {
  double value = 0.0;
  double estimate = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
};

struct QueryResult {
  // Maximum-likelihood answer. For kExistence this is P(value present).
  double estimate = 0.0;
  // Thresholded answer for kExistence.
  bool bool_answer = false;
  // Confidence interval at `confidence`.
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double confidence = 0.95;
  // True when no statistical estimation was involved (query was answered
  // entirely from raw windows, landmarks, and exact whole-window unions).
  bool exact = true;
  // True when part of the query range was answered without its data —
  // quarantined (checksum-failed) windows or scrub-recorded lost elements.
  // The answer is still sound: the missing spans are folded into [ci_lo,
  // ci_hi] as fully-uncertain sub-ranges, never silently ignored.
  bool degraded = false;
  // Inclusive [start, end] time spans whose data was missing (one entry per
  // affected window, clamped to the query range). Empty unless degraded.
  std::vector<std::pair<Timestamp, Timestamp>> skipped_spans;
  size_t windows_read = 0;
  size_t landmark_events = 0;
  // kTopK only: candidates ordered by descending count upper bound.
  std::vector<TopKEntry> topk;
  // Populated only when QuerySpec::collect_trace was set (shared so results
  // stay cheap to copy).
  std::shared_ptr<QueryTrace> trace;

  double CiWidth() const { return ci_hi - ci_lo; }
  // CI width relative to a baseline answer, the metric of §7.2.2.
  double RelativeCiWidth(double baseline) const {
    return baseline == 0.0 ? CiWidth() : CiWidth() / std::abs(baseline);
  }
};

// Executes `spec` against `stream`. Fails with kFailedPrecondition if the
// stream is not configured with an operator able to answer `spec.op`.
StatusOr<QueryResult> RunQuery(Stream& stream, const QuerySpec& spec);

// --- the range walk -------------------------------------------------------
// Every range answer is one pass over the windows overlapping [t1, t2]
// (ScanRange) folded by one op (a RangeFold): in-range events and fully
// covered windows count exactly, partially covered windows are estimated
// from their Overlap, and spans whose data is gone widen the interval.

// A summarized window's share of [t1, t2]: the query∩cover span plus the
// landmark-hollowed effective fraction t_eff / T_eff of §5.1.
struct Overlap {
  Timestamp a;  // query∩cover start (inclusive)
  Timestamp b;  // query∩cover end (exclusive)
  double frac;  // t_eff / T_eff in [0, 1]
  bool full;    // the query fully covers the window's (hollowed) span
};

// The spans of [t1, t2] whose data is missing: quarantined windows and the
// lost-element remnants a scrub repair folded into surviving windows. Each
// span's element count is known exactly from the window index; where inside
// the span those elements sit, and what their values were, is not.
struct Degradation {
  bool any = false;
  std::vector<std::pair<Timestamp, Timestamp>> spans;  // inclusive, per span
  uint64_t full_count = 0;   // lost elements certainly inside the range
  uint64_t total_count = 0;  // lost elements possibly inside the range
  double expected = 0.0;     // Σ frac·count — maximum-likelihood occupancy
};

// One op's state over a range walk.
class RangeFold {
 public:
  RangeFold() = default;
  RangeFold(const RangeFold&) = delete;
  RangeFold& operator=(const RangeFold&) = delete;
  virtual ~RangeFold() = default;
  // An event inside [t1, t2]; raw-window and landmark events alike.
  virtual void Add(const Event& event) = 0;
  // A summarized window that overlaps the range.
  virtual Status Merge(const SummaryWindow& window, const Overlap& overlap) = 0;
  // A raw window overlaps the range; its in-range events (maybe none) follow.
  virtual void RawWindow() {}
  // The answer, with `missing` folded into its interval.
  virtual StatusOr<QueryResult> Finish(const Degradation& missing) = 0;
};

// Walks the windows overlapping [spec.t1, spec.t2] once, feeding `fold`,
// then finishes it and fills the fields every op shares: confidence,
// windows_read, landmark_events, degraded and skipped_spans. Quarantined
// views reach the fold only through the Degradation. Phases are attributed
// in one order: window_scan, sketch_merge (the walk), degrade, ci_combine
// (the finish).
StatusOr<QueryResult> ScanRange(Stream& stream, const QuerySpec& spec, RangeFold& fold,
                                QueryTrace* trace = nullptr);

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_CORE_QUERY_H_
