// Set-up, final verification and metric reporting shared by the workloads.
#include <cstdio>

#include "perfbench/bench.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

constexpr size_t kPreloadBatch = 4096;

std::unique_ptr<ss::SummaryStore> OpenStore(Run& run, const ss::StoreOptions& options) {
  auto store = ss::SummaryStore::Open(options);
  if (!store.ok()) {
    run.report.Error("SummaryStore::Open: " + store.status().ToString());
    return nullptr;
  }
  return std::move(*store);
}

// Replays each stream's newest events through fresh summaries of its
// operator set (Summary::Update), then merges populated summaries of every
// operator set (Summary::MergeFrom), under spans.
void MeasureSketches(const Inputs& inputs, Report* report, uint64_t* replayed) {
  constexpr size_t kReplay = 65536;
  constexpr size_t kMergeInput = 4096;
  constexpr int kMergeReps = 64;
  std::map<int, const StreamInput*> per_ops;
  for (const auto& s : inputs) {
    ss::OperatorSet ops = MakeConfig(s->plan).operators;
    size_t n = std::min(kReplay, s->appended);
    auto summaries = ops.CreateAll(s->id);
    Span span("sketch.Update", s->id);
    for (size_t i = s->appended - n; i < s->appended; ++i) {
      const ss::Event& e = s->events[i];
      for (auto& summary : summaries) {
        summary->Update(e.ts, e.value);
      }
    }
    span.End();
    *replayed += n;
    per_ops.emplace(static_cast<int>(s->plan.ops), s.get());
  }
  for (const auto& [ops_kind, s] : per_ops) {
    if (s->appended < 2 * kMergeInput) {
      continue;
    }
    ss::OperatorSet ops = MakeConfig(s->plan).operators;
    auto a = ops.CreateAll(1);
    auto b = ops.CreateAll(2);
    for (size_t i = 0; i < kMergeInput; ++i) {
      const ss::Event& ea = s->events[i];
      const ss::Event& eb = s->events[kMergeInput + i];
      for (size_t k = 0; k < a.size(); ++k) {
        a[k]->Update(ea.ts, ea.value);
        b[k]->Update(eb.ts, eb.value);
      }
    }
    for (int rep = 0; rep < kMergeReps; ++rep) {
      for (size_t k = 0; k < a.size(); ++k) {
        std::unique_ptr<ss::Summary> target = a[k]->Clone();
        Span span("sketch.MergeFrom", k);
        ss::Status st = target->MergeFrom(*b[k]);
        span.End();
        if (!st.ok()) {
          report->Error("Summary::MergeFrom: " + st.ToString());
        }
      }
    }
  }
}

}  // namespace

std::unique_ptr<ss::SummaryStore> SetUpStore(Run& run, Inputs& inputs,
                                             const ss::StoreOptions& options) {
  run.rss_base = ReadRss().current;
  int64_t start = NowNs();
  auto store = OpenStore(run, options);
  if (store == nullptr) {
    return nullptr;
  }
  for (auto& s : inputs) {
    ss::Status st = store->CreateStreamWithId(s->id, MakeConfig(s->plan));
    if (!st.ok()) {
      run.report.Error("CreateStream: " + st.ToString());
      return nullptr;
    }
  }
  for (auto& s : inputs) {
    for (size_t i = 0; i < s->plan.history; i += kPreloadBatch) {
      size_t n = std::min(kPreloadBatch, s->plan.history - i);
      ss::Status st = store->AppendBatch(s->id, std::span(s->events.data() + i, n));
      if (!st.ok()) {
        run.report.Error("preload AppendBatch: " + st.ToString());
        return nullptr;
      }
      s->Advance(n);
    }
  }
  ss::Status st = store->Flush();
  if (!st.ok()) {
    run.report.Error("preload Flush: " + st.ToString());
    return nullptr;
  }
  run.preload_s = (NowNs() - start) / 1e9;
  store.reset();
  int64_t open_start = NowNs();
  store = OpenStore(run, options);
  run.open_s = (NowNs() - open_start) / 1e9;
  return store;
}

void BeginMeasured(Run& run) {
  if (run.opt.trace) {
    Tracer::Get().Enable();
  }
  run.delta.Start();
  run.wchar_base = ReadWriteChars();
  run.measured_start_ns = NowNs();
}

void EndMeasured(Run& run) {
  run.measured_end_ns = NowNs();
  Tracer::Get().Disable();
  run.delta.Stop();
  run.wchar_end = ReadWriteChars();
  run.rss_peak = ReadRss().peak;
}

void CrossCheckCore(Run& run) {
  uint64_t appends = run.delta.Counter("ss_core_append_total");
  if (appends != run.events) {
    run.report.Error("cross-check: ss_core_append_total delta " + std::to_string(appends) +
                     " != events appended " + std::to_string(run.events));
  }
  uint64_t fleet = run.delta.Counter("ss_core_query_aggregate_total");
  if (fleet != run.fleet_queries) {
    run.report.Error("cross-check: ss_core_query_aggregate_total delta " + std::to_string(fleet) +
                     " != fleet queries issued " + std::to_string(run.fleet_queries));
  }
}

void VerifyCounts(Run& run, ss::SummaryStore& store, Inputs& inputs, const char* when) {
  std::vector<ss::StreamId> ids;
  ss::Timestamp lo = INT64_MAX;
  ss::Timestamp hi = INT64_MIN;
  uint64_t total = 0;
  for (auto& s : inputs) {
    ss::QuerySpec spec;
    spec.op = ss::QueryOp::kCount;
    spec.t1 = s->events.front().ts;
    spec.t2 = s->events[s->appended - 1].ts;
    lo = std::min(lo, spec.t1);
    hi = std::max(hi, spec.t2);
    total += s->appended;
    ids.push_back(s->id);
    auto r = store.Query(s->id, spec);
    if (!r.ok() || r->estimate != static_cast<double>(s->appended)) {
      run.report.Error(std::string(when) + ": full-range count of stream " +
                       std::to_string(s->id) + " is " +
                       (r.ok() ? std::to_string(r->estimate) : r.status().ToString()) +
                       ", appended " + std::to_string(s->appended));
    }
  }
  ss::QuerySpec spec;
  spec.op = ss::QueryOp::kCount;
  spec.t1 = lo;
  spec.t2 = hi;
  auto fleet = store.QueryAggregate(ids, spec);
  if (!fleet.ok() || fleet->estimate != static_cast<double>(total)) {
    run.report.Error(std::string(when) + ": fleet count " +
                     (fleet.ok() ? std::to_string(fleet->estimate) : fleet.status().ToString()) +
                     " != sum of stream counts " + std::to_string(total));
  }
}

void FinishStore(Run& run, std::unique_ptr<ss::SummaryStore> store, Inputs& inputs,
                 const ss::StoreOptions& options) {
  ss::Status st = store->Flush();
  if (!st.ok()) {
    run.report.Error("final Flush: " + st.ToString());
  }
  run.store_bytes = DirBytes(options.dir);
  run.events_stored = 0;
  for (auto& s : inputs) {
    run.events_stored += s->appended;
  }
  VerifyCounts(run, *store, inputs, "before reopen");
  store.reset();
  store = OpenStore(run, options);
  if (store != nullptr) {
    VerifyCounts(run, *store, inputs, "after reopen");
  }
}

void ReportMetrics(Run& run, const Inputs& inputs) {
  Report& r = run.report;
  const double events = static_cast<double>(std::max<uint64_t>(1, run.events));
  r.Add("setup_s", run.setup_s, "s");
  r.Add("append_events_per_s", run.events / std::max(1e-9, run.append_busy_s), "events/s");
  r.Add("durable_p50_ms", Quantile(run.durable_ms, 0.50), "ms");
  r.Add("durable_p99_ms", Quantile(run.durable_ms, 0.99), "ms");
  r.Add("query_p50_ms", Quantile(run.query_ms, 0.50), "ms");
  r.Add("store_bytes_per_event",
        static_cast<double>(run.store_bytes) / std::max<uint64_t>(1, run.events_stored),
        "bytes/event");
  r.Add("peak_rss_mb", static_cast<double>(run.rss_peak - run.rss_base) / 1e6, "MB");
  if (!run.opt.trace) {
    return;
  }
  // A traced run reports per-layer metrics; its end-to-end figures go to a
  // line of their own, so tracing overhead can be read off against an
  // untraced run.
  std::printf("traced end-to-end:");
  for (const Report::Metric& m : r.metrics) {
    std::printf(" %s=%.10g", m.name.c_str(), m.value);
  }
  std::printf("\n");
  r.metrics.clear();

  // Sketch layer: measured after the workload, on its own inputs.
  uint64_t replayed = 0;
  Tracer::Get().Enable();
  MeasureSketches(inputs, &r, &replayed);
  Tracer::Get().Disable();

  const RegistryDelta& d = run.delta;
  std::map<std::string, Tracer::Totals> spans = Tracer::Get().Summarize();
  auto self_ns = [&](const char* name) { return spans[name].self_ns; };
  auto p50_ms = [&](const char* name) { return Quantile(spans[name].durations_ns, 0.5) / 1e6; };
  const double queries = static_cast<double>(std::max<uint64_t>(1, run.queries + run.fleet_queries));

  r.Add("core.append_ns_per_event", self_ns("core.AppendBatch") / events, "ns");
  r.Add("core.merges_per_event", d.Counter("ss_core_window_merges_total") / events, "1/event");
  r.Add("core.flush_ms_p50", p50_ms("core.Flush"), "ms");
  r.Add("core.flush_records_per_event",
        static_cast<double>(d.Histogram("ss_core_flush_batch_records").sum) / events, "1/event");
  r.Add("core.preload_s", run.preload_s, "s");
  r.Add("core.open_s", run.open_s, "s");
  for (const char* phase : {"plan", "window_scan", "sketch_merge", "ci_combine", "degrade"}) {
    r.Add(std::string("core.query_phase_us.") + phase,
          d.Histogram("ss_core_query_phase_us", std::string("phase=\"") + phase + "\"").Mean(),
          "us");
  }
  r.Add("core.windows_read_p50", Quantile(run.windows_read, 0.5), "count");
  r.Add("core.window_load_bytes_per_query",
        d.Counter("ss_core_window_load_bytes_total") / queries, "bytes");
  r.Add("core.window_cache_misses_per_query",
        d.Counter("ss_core_window_cache_misses_total") / queries, "count");
  r.Add("core.fleet_query_ms_p50", p50_ms("core.QueryAggregate"), "ms");
  // Only query lock waits: the program records append lock waits in
  // single-event Append alone, never in AppendBatch.
  r.Add("core.stream_lock_wait_us_mean.query",
        d.Histogram("ss_core_stream_lock_wait_us", "op=\"query\"").Mean(), "us");

  r.Add("sketch.update_ns_per_event",
        self_ns("sketch.Update") / std::max<uint64_t>(1, replayed), "ns");
  r.Add("sketch.merge_us_per_call",
        self_ns("sketch.MergeFrom") / std::max<uint64_t>(1, spans["sketch.MergeFrom"].spans) / 1e3,
        "us");

  r.Add("storage.memtable_flush_ms_mean",
        d.Histogram("ss_storage_memtable_flush_us").Mean() / 1e3, "ms");
  r.Add("storage.memtable_flushes", d.Counter("ss_storage_memtable_flush_total"), "count");
  r.Add("storage.compactions", d.Counter("ss_storage_compaction_total"), "count");
  r.Add("storage.compaction_ms_total", d.Histogram("ss_storage_compaction_us").sum / 1e3, "ms");
  r.Add("storage.wal_bytes_per_event", d.Counter("ss_storage_wal_bytes_total") / events,
        "bytes");
  // Bytes passed to write(2), less the socket traffic the server counts
  // (client request bytes are the server's reads).
  double file_writes = static_cast<double>(run.wchar_end - run.wchar_base) -
                       d.Counter("ss_net_bytes_read_total") -
                       d.Counter("ss_net_bytes_written_total");
  r.Add("storage.write_bytes_per_event", std::max(0.0, file_writes) / events, "bytes");
  r.Add("storage.fsyncs_per_kevent",
        1e3 * (d.Counter("ss_storage_wal_fsync_total") + d.Counter("ss_storage_dir_fsync_total")) /
            events,
        "count/kevent");
  for (const char* phase : {"wal_append", "memtable_apply"}) {
    r.Add(std::string("storage.write_phase_us_mean.") + phase,
          d.Histogram("ss_storage_write_phase_us", std::string("phase=\"") + phase + "\"").Mean(),
          "us");
  }
  r.Add("storage.block_cache_hits", d.Counter("ss_storage_block_cache_hits_total"), "count");
  r.Add("storage.block_cache_misses", d.Counter("ss_storage_block_cache_misses_total"), "count");
  r.Add("storage.block_read_bytes_per_query",
        d.Counter("ss_storage_block_read_bytes_total") / queries, "bytes");

  r.Add("net.request_us_mean.append_batch", run.request_us_append, "us");
  r.Add("net.request_us_mean.query", run.request_us_query, "us");
  r.Add("net.ack_flush_ms_mean", d.Histogram("ss_net_ack_flush_us").Mean() / 1e3, "ms");
  r.Add("net.ack_batch_requests_mean", d.Histogram("ss_net_ack_batch_requests").Mean(), "count");
  r.Add("net.ack_wait_ms_mean", run.ack_wait_ms, "ms");
  r.Add("net.query_transport_ms_mean", run.query_transport_ms, "ms");
  r.Add("net.retries", static_cast<double>(run.retries), "count");
  r.Add("net.generator_lag_ms_max", run.lag_ms_max, "ms");

  r.Add("query_p99_ms", Quantile(run.query_ms, 0.99), "ms");

  if (!run.opt.out_dir.empty()) {
    std::string path = run.opt.out_dir + "/spans-" + run.opt.workload + "-seed" +
                       std::to_string(run.opt.seed) + ".csv";
    if (!Tracer::Get().WriteCsv(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench
