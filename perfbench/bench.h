// Shared state of one benchmark run and the three workloads.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/inputs.h"
#include "perfbench/util.h"
#include "src/core/summary_store.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string store_dir;  // directory for the store (removed by the caller)
  std::string out_dir;    // where the traced run writes its spans
};

// Everything a run measures. End-to-end metrics come from the untraced run;
// per-layer metrics from the traced run's spans and registry deltas.
struct Run {
  explicit Run(const Options& options) : opt(options), checker(&report) {}

  Options opt;
  Report report;
  AnswerChecker checker;
  int64_t process_start_ns = 0;

  // Set-up.
  double generate_s = 0.0;  // input generation, excluded from setup_s
  double setup_s = 0.0;
  double preload_s = 0.0;
  double open_s = 0.0;
  uint64_t rss_base = 0;

  // Measured phase.
  int64_t measured_start_ns = 0;
  int64_t measured_end_ns = 0;
  RegistryDelta delta;
  uint64_t wchar_base = 0;
  uint64_t wchar_end = 0;
  uint64_t rss_peak = 0;
  uint64_t events = 0;        // appended (acked, on wire) in the measured phase
  double append_busy_s = 0.0;  // see README: embedded vs wire definitions
  std::vector<double> durable_ms;
  std::vector<double> query_ms;
  std::vector<double> windows_read;
  uint64_t queries = 0;  // single-stream queries whose windows_read is recorded
  uint64_t fleet_queries = 0;

  // Wire only.
  double ack_wait_ms = 0.0;
  double query_transport_ms = 0.0;
  double lag_ms_max = 0.0;
  uint64_t retries = 0;
  double request_us_append = 0.0;
  double request_us_query = 0.0;

  // After the final flush.
  uint64_t store_bytes = 0;
  uint64_t events_stored = 0;
};

// Embedded set-up shared by all workloads: create the streams, preload
// their history through AppendBatch, flush, close and reopen the store.
std::unique_ptr<ss::SummaryStore> SetUpStore(Run& run, Inputs& inputs,
                                             const ss::StoreOptions& options);
// Brackets the measured phase: starts/stops the registry delta, the write
// counter and (traced runs) the span recorder; records peak RSS at the end.
void BeginMeasured(Run& run);
void EndMeasured(Run& run);
// The program's own counts against the benchmark's tallies: appended
// events (ss_core_append_total) and fleet queries (ss_core_query_aggregate_total).
void CrossCheckCore(Run& run);
// Each stream's full-range count must equal the events appended to it, and
// the fleet count the sum of the per-stream counts.
void VerifyCounts(Run& run, ss::SummaryStore& store, Inputs& inputs, const char* when);
// Final flush, on-disk size, then close, reopen and verify again.
void FinishStore(Run& run, std::unique_ptr<ss::SummaryStore> store, Inputs& inputs,
                 const ss::StoreOptions& options);

void RunIngest(Run& run);
void RunColdQuery(Run& run);
void RunWire(Run& run);

// Fills run.report.metrics: end-to-end metrics untraced, per-layer traced.
void ReportMetrics(Run& run, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
