// cold_query: an embedded store larger than the 32 MiB block cache, driven
// by one thread. Every query runs after DropCaches(), as in Fig. 7b, over a
// range from one of the §7.2.2 (age, length) classes. Per round: one query
// per QueryOp from count to top-k on the seeded streams, one fleet
// QueryAggregate, and min, max and existence on the fixed stream. A thin
// trickle of appends goes to the heads of the evicted seeded streams and is
// flushed at a fixed event count.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "perfbench/bench.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

constexpr uint64_t kHistory = 400000;   // events preloaded per stream
constexpr uint64_t kRoundsPerSecond = 14;
constexpr size_t kTrickle = 16;          // events per seeded stream per round
constexpr uint64_t kFlushRounds = 4;     // flush every 4 rounds of trickle
constexpr uint64_t kWindowCacheBytes = 4 << 20;
constexpr ss::StreamId kFixedId = 100;
constexpr uint64_t kFixedSeed = 0x5eed;

// Class units in timestamp units (seconds of stream time, mean interarrival
// 10 s): minute, hour and day, as bench/bench_util.h. The month class needs
// more history than the stream holds (2 months of age plus 2 of length).
constexpr ss::Timestamp kClassUnits[] = {60, 3600, 86400};
constexpr int kClasses = 9;  // age unit x length unit

// Seeded single-stream ops. Min, max and existence run on the fixed stream.
constexpr ss::QueryOp kSeededOps[] = {
    ss::QueryOp::kCount,    ss::QueryOp::kSum,      ss::QueryOp::kMean,
    ss::QueryOp::kFrequency, ss::QueryOp::kDistinct, ss::QueryOp::kQuantile,
    ss::QueryOp::kValueRangeCount, ss::QueryOp::kTopK,
};
constexpr ss::QueryOp kFixedOps[] = {ss::QueryOp::kMin, ss::QueryOp::kMax,
                                     ss::QueryOp::kExistence};

// A range of class `cls` (age unit cls / 3, length unit cls % 3), sampled as
// bench/bench_util.h SampleQueryRange does: age and length uniform in
// [unit, 2 unit), the range ending `age` before the newest appended event.
// The range is then narrowed to the timestamps of the events it holds, so it
// is never empty.
ss::QuerySpec ClassRange(const StreamInput& s, int cls, SplitMix& rng) {
  const ss::Timestamp age_unit = kClassUnits[cls / 3];
  const ss::Timestamp length_unit = kClassUnits[cls % 3];
  auto age = static_cast<ss::Timestamp>(age_unit + rng.Below(age_unit));
  auto length = static_cast<ss::Timestamp>(length_unit + rng.Below(length_unit));
  const ss::Event* first = s.events.data();
  const ss::Event* end = first + s.appended;
  const ss::Timestamp t2 = (end - 1)->ts - age;
  const ss::Timestamp t1 = t2 - length;
  const ss::Event* hi = std::upper_bound(first, end, t2, [](ss::Timestamp t, const ss::Event& e) {
    return t < e.ts;
  });
  const ss::Event* lo = std::lower_bound(first, end, t1, [](const ss::Event& e, ss::Timestamp t) {
    return e.ts < t;
  });
  if (hi == first) {
    hi = first + 1;
  }
  if (lo >= hi) {
    lo = hi - 1;
  }
  ss::QuerySpec spec;
  spec.t1 = lo->ts;
  spec.t2 = (hi - 1)->ts;
  return spec;
}

// Frequency and existence ask for a value in range (even n) or for one
// drawn from twice the universe, so about half of those never occur.
void SetOperands(ss::QuerySpec& spec, const StreamInput& s, uint64_t n, SplitMix& rng) {
  const uint32_t universe = s.plan.universe;
  auto [first, last] = s.oracle.Range(spec.t1, spec.t2);
  spec.value = (n % 2 == 0) ? s.events[first + rng.Below(last - first)].value
                            : static_cast<double>(rng.Below(2 * universe));
  spec.quantile_q = (n % 2 == 0) ? 0.5 : 0.9;
  spec.value_lo = static_cast<double>(rng.Below(universe));
  spec.value_hi = spec.value_lo + 1 + static_cast<double>(rng.Below(universe / 4));
  spec.top_k = 5;
}

// The fixed stream's queries: min, max and existence over one range of each
// class, drawn once from a constant seed. Round r runs class r % 9.
std::vector<ss::QuerySpec> FixedQueries(const StreamInput& fixed) {
  SplitMix rng(kFixedSeed);
  std::vector<ss::QuerySpec> specs;
  for (int cls = 0; cls < kClasses; ++cls) {
    ss::QuerySpec range = ClassRange(fixed, cls, rng);
    SetOperands(range, fixed, static_cast<uint64_t>(cls), rng);
    for (ss::QueryOp op : kFixedOps) {
      range.op = op;
      specs.push_back(range);
    }
  }
  return specs;
}

}  // namespace

void RunColdQuery(Run& run) {
  // Whole cycles of flushes and of the fixed stream's classes, so every
  // trickle batch is flushed inside the phase and every run attempts the
  // same fixed queries the same number of times.
  constexpr uint64_t kCycle = std::lcm(kFlushRounds, static_cast<uint64_t>(kClasses));
  const uint64_t rounds =
      (kRoundsPerSecond * static_cast<uint64_t>(run.opt.seconds) + kCycle - 1) / kCycle * kCycle;
  int64_t gen_start = NowNs();
  Inputs inputs;
  ss::StreamId id = 1;
  for (auto [decay, arrival] : {std::pair{Decay::kPowerLaw, Arrival::kPoisson},
                                 std::pair{Decay::kPowerLaw, Arrival::kPareto},
                                 std::pair{Decay::kPowerLaw, Arrival::kPoisson},
                                 std::pair{Decay::kExponential, Arrival::kPareto}}) {
    StreamPlan plan;
    plan.decay = decay;
    plan.ops = Ops::kFull;
    plan.arrival = arrival;
    plan.history = kHistory;
    plan.live = rounds * kTrickle;
    plan.window_cache_bytes = kWindowCacheBytes;
    inputs.push_back(std::make_unique<StreamInput>(id, plan, SubSeed(run.opt.seed, id)));
    ++id;
  }
  // The fixed stream: Exponential decay, Poisson arrivals, the §7.2.2
  // operator set. Neither its events nor its queries depend on the seed, and
  // it gets no trickle, so its answers, and the faults among them, repeat in
  // every run.
  StreamPlan fixed_plan = inputs.front()->plan;
  fixed_plan.decay = Decay::kExponential;
  fixed_plan.arrival = Arrival::kPoisson;
  fixed_plan.ops = Ops::kMicro;
  fixed_plan.live = 0;
  inputs.push_back(std::make_unique<StreamInput>(kFixedId, fixed_plan, kFixedSeed));
  run.generate_s = (NowNs() - gen_start) / 1e9;

  ss::StoreOptions options;
  options.dir = run.opt.store_dir + "/store";
  std::unique_ptr<ss::SummaryStore> store = SetUpStore(run, inputs, options);
  if (store == nullptr) {
    return;
  }
  run.setup_s = (NowNs() - run.process_start_ns) / 1e9 - run.generate_s;

  std::vector<StreamInput*> streams;  // the seeded streams
  std::vector<ss::StreamId> ids;
  for (auto& s : inputs) {
    if (s->id != kFixedId) {
      streams.push_back(s.get());
      ids.push_back(s->id);
    }
  }
  const StreamInput* shortest = *std::min_element(
      streams.begin(), streams.end(), [](const StreamInput* a, const StreamInput* b) {
        return a->events[a->plan.history - 1].ts < b->events[b->plan.history - 1].ts;
      });
  StreamInput& fixed = *inputs.back();
  const std::vector<ss::QuerySpec> fixed_queries = FixedQueries(fixed);

  SplitMix rng(SubSeed(run.opt.seed, 0xc01d));
  BeginMeasured(run);
  std::vector<int64_t> pending_starts;  // trickle batches awaiting a flush
  uint64_t query_id = 0;
  auto timed_query = [&](StreamInput& s, const ss::QuerySpec& spec) {
    Span drop_span("core.DropCaches", query_id + 1);
    store->DropCaches();
    drop_span.End();
    int64_t start = NowNs();
    Span span("core.Query", ++query_id);
    auto r = store->Query(s.id, spec);
    span.End();
    run.query_ms.push_back((NowNs() - start) / 1e6);
    ++run.report.attempted;
    if (!r.ok()) {
      run.report.Error(std::string("Query ") + ss::QueryOpName(spec.op) + ": " +
                       r.status().ToString());
      return false;
    }
    ++run.queries;
    run.windows_read.push_back(static_cast<double>(r->windows_read));
    // The two faults that count as failed (README, "Failed operations").
    if (run.checker.Check(s, spec, *r)) {
      ++run.report.failed;
    }
    return true;
  };
  for (uint64_t round = 0; round < rounds; ++round) {
    Span round_span("cold_query.round", round);
    for (size_t k = 0; k < std::size(kSeededOps); ++k) {
      StreamInput& s = *streams[(round + k) % streams.size()];
      ss::QuerySpec spec =
          ClassRange(s, static_cast<int>((round * std::size(kSeededOps) + k) % kClasses), rng);
      spec.op = kSeededOps[k];
      SetOperands(spec, s, round, rng);
      if (!timed_query(s, spec)) {
        return;
      }
    }
    for (size_t k = 0; k < std::size(kFixedOps); ++k) {
      if (!timed_query(fixed, fixed_queries[(round % kClasses) * std::size(kFixedOps) + k])) {
        return;
      }
    }

    constexpr ss::QueryOp kFleetOps[] = {ss::QueryOp::kCount, ss::QueryOp::kSum,
                                         ss::QueryOp::kMin, ss::QueryOp::kMax};
    // Fleet ranges are an hour or a day long and end inside every stream: a
    // fleet min/max fails outright when any one stream has no event in range
    // (README, "Known faults").
    constexpr int kFleetClasses[] = {1, 2, 4, 5, 7, 8};
    ss::QuerySpec fleet_spec = ClassRange(*shortest, kFleetClasses[round % 6], rng);
    fleet_spec.op = kFleetOps[round % 4];
    Span drop_span("core.DropCaches", round);
    store->DropCaches();
    drop_span.End();
    int64_t start = NowNs();
    Span fleet_span("core.QueryAggregate", round);
    auto fleet = store->QueryAggregate(ids, fleet_spec);
    fleet_span.End();
    run.query_ms.push_back((NowNs() - start) / 1e6);
    ++run.report.attempted;
    ++run.fleet_queries;
    if (!fleet.ok()) {
      run.report.Error("QueryAggregate: " + fleet.status().ToString());
      return;
    }
    run.checker.CheckFleet(streams, fleet_spec, *fleet);

    // Trickle appends to the evicted heads; flush at a fixed event count.
    for (StreamInput* s : streams) {
      int64_t batch_start = NowNs();
      Span span("core.AppendBatch", s->id);
      ss::Status st = store->AppendBatch(s->id, std::span(s->events.data() + s->appended, kTrickle));
      span.End();
      run.append_busy_s += (NowNs() - batch_start) / 1e9;
      ++run.report.attempted;
      if (!st.ok()) {
        run.report.Error("AppendBatch: " + st.ToString());
        return;
      }
      s->Advance(kTrickle);
      run.events += kTrickle;
      pending_starts.push_back(batch_start);
    }
    if ((round + 1) % kFlushRounds == 0) {
      int64_t flush_start = NowNs();
      Span span("core.Flush", round);
      ss::Status st = store->Flush();
      span.End();
      int64_t flush_end = NowNs();
      run.append_busy_s += (flush_end - flush_start) / 1e9;
      ++run.report.attempted;
      if (!st.ok()) {
        run.report.Error("Flush: " + st.ToString());
        return;
      }
      for (int64_t t : pending_starts) {
        run.durable_ms.push_back((flush_end - t) / 1e6);
      }
      pending_starts.clear();
    }
  }
  EndMeasured(run);

  CrossCheckCore(run);
  FinishStore(run, std::move(store), inputs, options);
  ReportMetrics(run, inputs);
}

}  // namespace perfbench
