// ingest: an embedded durable store driven by one thread. AppendBatch goes
// round-robin into eight streams (both decay families x two operator sets x
// Poisson/Pareto arrivals); SummaryStore::Flush runs after every round of
// batches, i.e. at a fixed event count, and a few warm queries then read the
// newest data.
#include <cstdio>

#include "perfbench/bench.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

constexpr size_t kBatch = 256;          // events per AppendBatch
constexpr uint64_t kHistory = 120000;   // events preloaded per stream
constexpr uint64_t kRoundsPerSecond = 21;
constexpr size_t kWarmSpan = 512;       // warm queries cover the newest events

Inputs MakeInputs(const Options& opt, uint64_t rounds) {
  Inputs inputs;
  ss::StreamId id = 1;
  for (Decay decay : {Decay::kPowerLaw, Decay::kExponential}) {
    for (Ops ops : {Ops::kMicro, Ops::kFull}) {
      for (Arrival arrival : {Arrival::kPoisson, Arrival::kPareto}) {
        StreamPlan plan;
        plan.decay = decay;
        plan.ops = ops;
        plan.arrival = arrival;
        plan.history = kHistory;
        plan.live = rounds * kBatch;
        inputs.push_back(std::make_unique<StreamInput>(id, plan, SubSeed(opt.seed, id)));
        ++id;
      }
    }
  }
  return inputs;
}

}  // namespace

void RunIngest(Run& run) {
  const uint64_t rounds = kRoundsPerSecond * static_cast<uint64_t>(run.opt.seconds);
  int64_t gen_start = NowNs();
  Inputs inputs = MakeInputs(run.opt, rounds);
  run.generate_s = (NowNs() - gen_start) / 1e9;

  ss::StoreOptions options;
  options.dir = run.opt.store_dir + "/store";
  std::unique_ptr<ss::SummaryStore> store = SetUpStore(run, inputs, options);
  if (store == nullptr) {
    return;
  }
  run.setup_s = (NowNs() - run.process_start_ns) / 1e9 - run.generate_s;

  std::vector<ss::StreamId> ids;
  std::vector<StreamInput*> streams;
  for (auto& s : inputs) {
    ids.push_back(s->id);
    streams.push_back(s.get());
  }
  BeginMeasured(run);
  std::vector<int64_t> batch_start(inputs.size());
  uint64_t batch_id = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    Span round_span("ingest.round", round);
    for (size_t i = 0; i < inputs.size(); ++i) {
      StreamInput& s = *inputs[i];
      batch_start[i] = NowNs();
      Span span("core.AppendBatch", ++batch_id);
      ss::Status st = store->AppendBatch(s.id, std::span(s.events.data() + s.appended, kBatch));
      span.End();
      run.append_busy_s += (NowNs() - batch_start[i]) / 1e9;
      ++run.report.attempted;
      if (!st.ok()) {
        run.report.Error("AppendBatch: " + st.ToString());
        return;
      }
      s.Advance(kBatch);
      run.events += kBatch;
    }
    int64_t flush_start = NowNs();
    Span flush_span("core.Flush", round);
    ss::Status st = store->Flush();
    flush_span.End();
    int64_t flush_end = NowNs();
    run.append_busy_s += (flush_end - flush_start) / 1e9;
    ++run.report.attempted;
    if (!st.ok()) {
      run.report.Error("Flush: " + st.ToString());
      return;
    }
    for (int64_t start : batch_start) {
      run.durable_ms.push_back((flush_end - start) / 1e6);
    }

    // Warm queries on the newest data of one stream, plus one fleet count.
    Span warm_span("ingest.warm_queries", round);
    StreamInput& s = *inputs[round % inputs.size()];
    ss::QuerySpec spec;
    spec.t1 = s.events[s.appended - kWarmSpan].ts;
    spec.t2 = s.events[s.appended - 1].ts;
    for (ss::QueryOp op : {ss::QueryOp::kCount, ss::QueryOp::kSum, ss::QueryOp::kFrequency}) {
      spec.op = op;
      spec.value = s.events[s.appended - 1 - round % kWarmSpan].value;
      int64_t start = NowNs();
      Span span("core.Query", round);
      auto r = store->Query(s.id, spec);
      span.End();
      run.query_ms.push_back((NowNs() - start) / 1e6);
      ++run.report.attempted;
      if (!r.ok()) {
        run.report.Error(std::string("Query ") + ss::QueryOpName(op) + ": " + r.status().ToString());
        return;
      }
      ++run.queries;
      run.windows_read.push_back(static_cast<double>(r->windows_read));
      run.checker.Check(s, spec, *r);
    }
    spec.op = ss::QueryOp::kCount;
    int64_t start = NowNs();
    Span span("core.QueryAggregate", round);
    auto fleet = store->QueryAggregate(ids, spec);
    span.End();
    run.query_ms.push_back((NowNs() - start) / 1e6);
    ++run.report.attempted;
    ++run.fleet_queries;
    if (!fleet.ok()) {
      run.report.Error("QueryAggregate: " + fleet.status().ToString());
      return;
    }
    run.checker.CheckFleet(streams, spec, *fleet);
  }
  EndMeasured(run);

  CrossCheckCore(run);
  FinishStore(run, std::move(store), inputs, options);
  ReportMetrics(run, inputs);
}

}  // namespace perfbench
