// Per-query "explain" trace: what a single range query actually touched —
// the window/byte/cache accounting that dominates SummaryStore latency
// (Figures 5-13 of the paper). Opt-in: set QuerySpec::collect_trace and the
// engine threads a QueryTrace through window and storage reads, attaching it
// to the QueryResult.
#ifndef SUMMARYSTORE_SRC_OBS_TRACE_H_
#define SUMMARYSTORE_SRC_OBS_TRACE_H_

#include <cstdint>
#include <string>

#include "src/common/clock.h"

namespace ss {

// Query pipeline phases. Each query attributes its latency across these via
// QueryPhaseSpan; the breakdown lands both in the per-phase histogram
// ss_core_query_phase_us{phase=...} and (when tracing) in
// QueryTrace::phase_us. Every op runs them in one order: plan, window_scan,
// sketch_merge, degrade, ci_combine (the range walk, ScanRange in
// src/core/query.cc, opens all but plan).
enum class QueryPhase : int {
  kPlan = 0,        // validation, stream lookup, landmark gate
  kWindowScan = 1,  // WindowsOverlapping: decayed-window walk + payload loads
  kSketchMerge = 2, // the range walk: raw scans, summary merges, landmarks
  kCiCombine = 3,   // the op's finish: interval arithmetic, including the
                    // widening over quarantined (missing) spans
  kDegrade = 4,     // gathering the missing spans the walk found
};
inline constexpr int kNumQueryPhases = 5;

const char* QueryPhaseName(QueryPhase phase);

struct QueryTrace {
  // What was asked.
  std::string op;
  Timestamp t1 = 0;
  Timestamp t2 = 0;

  // Window scan accounting (from Stream::WindowsOverlapping).
  uint64_t windows_scanned = 0;   // window views visited by the query walk
  uint64_t raw_windows = 0;       // of those, raw-event (exact) windows
  uint64_t summary_windows = 0;   // of those, materialized summary windows
  uint64_t window_cache_hits = 0;    // payload already resident in memory
  uint64_t window_cache_misses = 0;  // payload loaded from the KV backend
  uint64_t bytes_fetched = 0;        // serialized bytes read from the backend

  // Landmark accounting.
  uint64_t landmark_windows = 0;
  uint64_t landmark_events = 0;

  // Storage block cache delta over the query (durable backends only).
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;

  // Degradation accounting (PR 5 corruption defense): quarantined windows
  // the scan could not read, and the spans the estimator had to skip (the CI
  // is widened to cover them).
  bool degraded = false;
  uint64_t quarantined_windows = 0;
  uint64_t skipped_spans = 0;

  // Estimator outcome.
  double estimate = 0.0;
  double ci_lo = 0.0;
  double ci_hi = 0.0;
  double ci_width = 0.0;
  bool exact = false;

  double elapsed_micros = 0.0;

  // Per-phase latency attribution, indexed by QueryPhase.
  double phase_us[kNumQueryPhases] = {0, 0, 0, 0, 0};

  // Multi-line human-readable rendering (sstool query --explain).
  std::string Render() const;
};

// RAII phase span: times a section of the query pipeline and attributes it
// to `phase` — always into ss_core_query_phase_us{phase=...}, and into
// trace->phase_us when a trace is being collected (trace may be null).
// Phases can run more than once per query (e.g. per-stream scans in a fleet
// aggregate); contributions accumulate.
class QueryPhaseSpan {
 public:
  QueryPhaseSpan(QueryPhase phase, QueryTrace* trace);
  ~QueryPhaseSpan() { End(); }

  // Ends the span early (idempotent).
  void End();

  QueryPhaseSpan(const QueryPhaseSpan&) = delete;
  QueryPhaseSpan& operator=(const QueryPhaseSpan&) = delete;

 private:
  QueryPhase phase_;
  QueryTrace* trace_;
  Stopwatch stopwatch_;
  bool done_ = false;
};

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_OBS_TRACE_H_
