// wire: an in-process net::Server on loopback (durable acks, 2 worker
// threads) over a preloaded store. Two RetryingClient connections pipeline
// AppendBatch requests with a fixed in-flight window (closed loop); a third
// sends count, sum and frequency queries over the preloaded history on a
// fixed schedule (open loop), each timed from its scheduled send time.
#include <algorithm>
#include <cmath>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/tracer.h"
#include "src/net/retry_client.h"
#include "src/net/server.h"

namespace perfbench {
namespace {

constexpr uint64_t kHistory = 60000;         // events preloaded per stream
constexpr size_t kBatch = 128;               // events per AppendBatch request
constexpr size_t kInFlight = 8;              // batches in flight per connection
constexpr uint64_t kBatchesPerSecond = 250;  // per append connection
// The query schedule (75 per second of budget, one every 10 ms) ends before
// the appends do, so every query competes with ingest. At one every 5 ms,
// over a 200k-event history, the schedule once fell behind for good while
// the host ran slow.
constexpr uint64_t kQueriesPerSecond = 75;
constexpr int64_t kQueryPeriodNs = 10'000'000;
constexpr size_t kWorkerThreads = 2;

struct AppendResult {
  std::vector<double> durable_ms;
  uint64_t batches = 0;
  uint64_t acked_events = 0;
  int64_t first_send_ns = 0;
  int64_t last_ack_ns = 0;
  uint64_t retries = 0;
  std::vector<uint64_t> acked_per_stream;
  std::string error;
};

// One append connection: alternates batches between `a` and `b`, keeping
// kInFlight batches outstanding until `batches` have been acked.
void AppendLoop(uint16_t port, StreamInput* a, StreamInput* b, uint64_t batches,
                AppendResult* out) {
  ss::net::ClientOptions options;
  auto client = ss::net::RetryingClient::Connect("127.0.0.1", port, options);
  if (!client.ok()) {
    out->error = "connect: " + client.status().ToString();
    return;
  }
  StreamInput* streams[2] = {a, b};
  size_t offset[2] = {a->plan.history, b->plan.history};
  struct Sent {
    int64_t start_ns;
    int stream;
  };
  std::map<uint64_t, Sent> inflight;
  out->acked_per_stream.assign(2, 0);
  uint64_t sent = 0;
  while (sent < batches || !inflight.empty()) {
    while (sent < batches && inflight.size() < kInFlight) {
      int k = static_cast<int>(sent % 2);
      StreamInput* s = streams[k];
      int64_t start = NowNs();
      auto seq = (*client)->SendAppendBatch(s->id, std::span(s->events.data() + offset[k], kBatch));
      if (!seq.ok()) {
        out->error = "SendAppendBatch: " + seq.status().ToString();
        return;
      }
      if (out->first_send_ns == 0) {
        out->first_send_ns = start;
      }
      offset[k] += kBatch;
      inflight[*seq] = Sent{start, k};
      ++sent;
    }
    auto ack = (*client)->ReceiveAck();
    int64_t now = NowNs();
    if (!ack.ok() || !ack->status.ok()) {
      out->error = "ack: " + (ack.ok() ? ack->status.ToString() : ack.status().ToString());
      return;
    }
    auto it = inflight.find(ack->seq);
    if (it == inflight.end()) {
      out->error = "ack for unknown seq " + std::to_string(ack->seq);
      return;
    }
    Tracer::Get().Add("net.AppendBatch", ack->seq, it->second.start_ns, now);
    out->durable_ms.push_back((now - it->second.start_ns) / 1e6);
    out->acked_per_stream[it->second.stream] += kBatch;
    out->acked_events += kBatch;
    out->last_ack_ns = now;
    inflight.erase(it);
  }
  out->batches = sent;
  out->retries = (*client)->retries() + (*client)->reconnects();
}

struct QueryResultSet {
  std::vector<double> latency_ms;    // from the scheduled send time
  std::vector<double> transport_ms;  // from the actual send time
  std::vector<double> windows_read;
  double lag_ms_max = 0.0;
  uint64_t sent = 0;
  uint64_t retries = 0;
  std::string error;
};

// The open-loop query connection: query i is due at start + i·period.
void QueryLoop(uint16_t port, const Inputs& inputs, uint64_t queries, uint64_t seed,
               AnswerChecker* checker, QueryResultSet* out) {
  auto client = ss::net::RetryingClient::Connect("127.0.0.1", port, ss::net::ClientOptions{});
  if (!client.ok()) {
    out->error = "connect: " + client.status().ToString();
    return;
  }
  constexpr ss::QueryOp kOps[] = {ss::QueryOp::kCount, ss::QueryOp::kSum,
                                  ss::QueryOp::kFrequency};
  SplitMix rng(seed);
  const int64_t start = NowNs();
  for (uint64_t i = 0; i < queries; ++i) {
    const StreamInput& s = *inputs[i % inputs.size()];
    // A range inside the preloaded history: the oracle is exact while the
    // appends extend the head.
    size_t hi = 1 + rng.Below(s.plan.history - 1);
    size_t len = std::min<size_t>(hi, 1 + static_cast<size_t>(std::pow(10.0, 1 + 3 * rng.Uniform())));
    ss::QuerySpec spec;
    spec.op = kOps[i % std::size(kOps)];
    spec.t1 = s.events[hi - len].ts;
    spec.t2 = s.events[hi - 1].ts;
    spec.value = s.events[hi - len + rng.Below(len)].value;

    const int64_t due = start + static_cast<int64_t>(i) * kQueryPeriodNs;
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const int64_t send = NowNs();
    out->lag_ms_max = std::max(out->lag_ms_max, (send - due) / 1e6);
    Span span("net.Query", i);
    auto r = (*client)->Query(s.id, spec);
    span.End();
    const int64_t done = NowNs();
    ++out->sent;
    if (!r.ok()) {
      out->error = std::string("Query ") + ss::QueryOpName(spec.op) + ": " + r.status().ToString();
      return;
    }
    out->latency_ms.push_back((done - due) / 1e6);
    out->transport_ms.push_back((done - send) / 1e6);
    out->windows_read.push_back(static_cast<double>(r->result.windows_read));
    checker->Check(s, spec, r->result);
  }
  out->retries = (*client)->retries() + (*client)->reconnects();
}

}  // namespace

void RunWire(Run& run) {
  const uint64_t batches = kBatchesPerSecond * static_cast<uint64_t>(run.opt.seconds);
  const uint64_t queries = kQueriesPerSecond * static_cast<uint64_t>(run.opt.seconds);
  int64_t gen_start = NowNs();
  Inputs inputs;
  ss::StreamId id = 1;
  for (auto [decay, arrival] : {std::pair{Decay::kPowerLaw, Arrival::kPoisson},
                                 std::pair{Decay::kExponential, Arrival::kPareto},
                                 std::pair{Decay::kPowerLaw, Arrival::kPareto},
                                 std::pair{Decay::kExponential, Arrival::kPoisson}}) {
    StreamPlan plan;
    plan.decay = decay;
    plan.arrival = arrival;
    plan.history = kHistory;
    plan.live = (batches + 1) / 2 * kBatch;
    inputs.push_back(std::make_unique<StreamInput>(id, plan, SubSeed(run.opt.seed, id)));
    ++id;
  }
  run.generate_s = (NowNs() - gen_start) / 1e9;

  ss::StoreOptions options;
  options.dir = run.opt.store_dir + "/store";
  std::unique_ptr<ss::SummaryStore> store = SetUpStore(run, inputs, options);
  if (store == nullptr) {
    return;
  }
  ss::net::ServerOptions server_options;
  server_options.worker_threads = kWorkerThreads;
  server_options.durable_acks = true;
  auto server = ss::net::Server::Start(store.get(), server_options);
  if (!server.ok()) {
    run.report.Error("Server::Start: " + server.status().ToString());
    return;
  }
  run.setup_s = (NowNs() - run.process_start_ns) / 1e9 - run.generate_s;
  const uint16_t port = (*server)->port();

  BeginMeasured(run);
  AppendResult appends[2];
  QueryResultSet query_results;
  {
    std::thread a0(AppendLoop, port, inputs[0].get(), inputs[1].get(), batches, &appends[0]);
    std::thread a1(AppendLoop, port, inputs[2].get(), inputs[3].get(), batches, &appends[1]);
    std::thread q(QueryLoop, port, std::cref(inputs), queries, SubSeed(run.opt.seed, 0x9e7),
                  &run.checker, &query_results);
    a0.join();
    a1.join();
    q.join();
  }
  EndMeasured(run);

  int64_t first_send = INT64_MAX;
  int64_t last_ack = 0;
  uint64_t batches_sent = 0;
  for (int t = 0; t < 2; ++t) {
    AppendResult& r = appends[t];
    if (!r.error.empty()) {
      run.report.Error("append connection " + std::to_string(t) + ": " + r.error);
    }
    first_send = std::min(first_send, r.first_send_ns);
    last_ack = std::max(last_ack, r.last_ack_ns);
    batches_sent += r.batches;
    run.events += r.acked_events;
    run.retries += r.retries;
    run.durable_ms.insert(run.durable_ms.end(), r.durable_ms.begin(), r.durable_ms.end());
    for (int k = 0; k < 2 && k < static_cast<int>(r.acked_per_stream.size()); ++k) {
      inputs[2 * t + k]->Advance(r.acked_per_stream[k]);
    }
  }
  if (!query_results.error.empty()) {
    run.report.Error("query connection: " + query_results.error);
  }
  run.report.attempted += 2 * batches + queries;
  run.append_busy_s = (last_ack - first_send) / 1e9;
  run.query_ms = query_results.latency_ms;
  run.queries = query_results.sent;
  run.windows_read = query_results.windows_read;
  run.lag_ms_max = query_results.lag_ms_max;
  run.retries += query_results.retries;
  run.request_us_append = run.delta.Histogram("ss_net_request_us", "op=\"append_batch\"").Mean();
  run.request_us_query = run.delta.Histogram("ss_net_request_us", "op=\"query\"").Mean();
  // Per-request server times are not exported, so these are differences of
  // means: client-measured time less the server's mean request time.
  run.ack_wait_ms = Mean(run.durable_ms) - run.request_us_append / 1e3;
  run.query_transport_ms = Mean(query_results.transport_ms) - run.request_us_query / 1e3;

  // Cross-checks: the program's own counts against the benchmark's tallies.
  CrossCheckCore(run);
  for (uint8_t op = 0; op <= static_cast<uint8_t>(ss::net::Opcode::kMaxOpcode); ++op) {
    auto opcode = static_cast<ss::net::Opcode>(op);
    uint64_t expected = opcode == ss::net::Opcode::kAppendBatch ? batches_sent
                        : opcode == ss::net::Opcode::kQuery     ? query_results.sent
                                                                : 0;
    uint64_t seen = run.delta.Counter("ss_net_requests_total",
                                      std::string("op=\"") + ss::net::OpcodeName(opcode) + "\"");
    if (seen != expected) {
      run.report.Error(std::string("cross-check: ss_net_requests_total{op=") +
                       ss::net::OpcodeName(opcode) + "} " + std::to_string(seen) +
                       " != requests sent " + std::to_string(expected));
    }
  }

  (*server)->Stop();
  server->reset();
  FinishStore(run, std::move(store), inputs, options);
  ReportMetrics(run, inputs);
}

}  // namespace perfbench
