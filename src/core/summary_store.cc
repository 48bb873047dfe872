#include "src/core/summary_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>

#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace ss {

namespace {

// Maintained across create/delete/open so a flight-bundle metrics snapshot
// always carries the store's stream population.
Gauge& StreamCountGauge() {
  static Gauge& gauge = MetricRegistry::Default().GetGauge("ss_store_stream_count");
  return gauge;
}

}  // namespace

StatusOr<std::unique_ptr<SummaryStore>> SummaryStore::Open(const StoreOptions& options) {
  std::unique_ptr<KvBackend> kv;
  if (options.dir.empty()) {
    kv = std::make_unique<MemoryBackend>();
  } else {
    SS_ASSIGN_OR_RETURN(std::unique_ptr<LsmStore> lsm, LsmStore::Open(options.dir, options.lsm));
    kv = std::move(lsm);
  }
  std::unique_ptr<SummaryStore> store(
      new SummaryStore(std::move(kv), options.fleet_query_threads));

  // Store meta: varint next_id, varint count, then stream ids. No locking:
  // the store is not published to other threads until Open returns.
  auto meta = store->kv_->Get(StoreMetaKey());
  if (meta.ok()) {
    Reader reader(*meta);
    SS_ASSIGN_OR_RETURN(store->next_stream_id_, reader.ReadVarint());
    SS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      SS_ASSIGN_OR_RETURN(StreamId id, reader.ReadVarint());
      SS_ASSIGN_OR_RETURN(std::unique_ptr<Stream> stream, Stream::Load(id, store->kv_.get()));
      store->streams_.emplace(id, std::move(stream));
    }
  } else if (meta.status().code() != StatusCode::kNotFound) {
    return meta.status();
  }
  StreamCountGauge().Set(static_cast<int64_t>(store->streams_.size()));
  if (options.scrub_interval_ms > 0) {
    store->StartScrubThread(options.scrub_interval_ms, options.scrub_repair);
  }
  return store;
}

SummaryStore::~SummaryStore() {
  if (scrub_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(scrub_mu_);
      scrub_stop_ = true;
    }
    scrub_cv_.notify_all();
    scrub_thread_.join();
  }
}

void SummaryStore::StartScrubThread(uint64_t interval_ms, bool repair) {
  scrub_thread_ = std::thread([this, interval_ms, repair] {
    static Counter& cycles =
        MetricRegistry::Default().GetCounter("ss_core_scrub_cycles_total");
    std::unique_lock<std::mutex> lock(scrub_mu_);
    for (;;) {
      scrub_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return scrub_stop_; });
      if (scrub_stop_) {
        return;
      }
      lock.unlock();
      ScrubReport report;
      Status status = Scrub(repair, &report);
      if (!status.ok()) {
        SS_LOG(Warning) << "background scrub cycle failed: " << status.ToString();
      }
      cycles.Inc();
      lock.lock();
    }
  });
}

Status SummaryStore::Scrub(bool repair, ScrubReport* report) {
  // Force real storage reads: cached LSM blocks would mask on-disk
  // corruption. Resident window payloads are kept — verification always
  // fetches the KV copy regardless, and the resident clean copies are
  // exactly what the repair pass re-flushes from.
  kv_->DropCaches();
  ScrubReport local;
  if (report == nullptr) {
    report = &local;
  }
  uint64_t checked_before = report->windows_checked;
  uint64_t errors_before = report->errors;
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  Status first_error = Status::Ok();
  for (auto& [id, stream] : streams_) {
    std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
    Status status = stream->Scrub(repair, report);
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
  }
  FlightRecorder::Default().Record(FlightEventType::kScrubCycle,
                                   report->windows_checked - checked_before,
                                   report->errors - errors_before);
  return first_error;
}

Status SummaryStore::PersistStreamList() {
  Writer writer;
  writer.PutVarint(next_stream_id_);
  writer.PutVarint(streams_.size());
  for (const auto& [id, stream] : streams_) {
    writer.PutVarint(id);
  }
  return kv_->Put(StoreMetaKey(), writer.data());
}

StatusOr<Stream*> SummaryStore::FindStreamLocked(StreamId id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(id) + " not found");
  }
  return it->second.get();
}

StatusOr<StreamId> SummaryStore::CreateStream(StreamConfig config) {
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  // The id is committed only if creation succeeds (CreateStreamWithIdLocked
  // bumps next_stream_id_ past it); a rejected config leaks nothing.
  const StreamId id = next_stream_id_;
  SS_RETURN_IF_ERROR(CreateStreamWithIdLocked(id, std::move(config)));
  return id;
}

Status SummaryStore::CreateStreamWithId(StreamId id, StreamConfig config) {
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  return CreateStreamWithIdLocked(id, std::move(config));
}

Status SummaryStore::CreateStreamWithIdLocked(StreamId id, StreamConfig config) {
  if (streams_.contains(id)) {
    return Status::AlreadyExists("stream " + std::to_string(id) + " exists");
  }
  if (config.decay == nullptr) {
    return Status::InvalidArgument("stream config requires a decay function");
  }
  next_stream_id_ = std::max(next_stream_id_, id + 1);
  auto stream = std::make_unique<Stream>(id, std::move(config), kv_.get());
  streams_.emplace(id, std::move(stream));
  StreamCountGauge().Set(static_cast<int64_t>(streams_.size()));
  return PersistStreamList();
}

Status SummaryStore::DeleteStream(StreamId id) {
  std::unique_lock<std::shared_mutex> registry(registry_mu_);
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return Status::NotFound("stream " + std::to_string(id) + " not found");
  }
  SS_RETURN_IF_ERROR(it->second->Erase());
  streams_.erase(it);
  StreamCountGauge().Set(static_cast<int64_t>(streams_.size()));
  return PersistStreamList();
}

std::vector<StreamId> SummaryStore::ListStreams() const {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  std::vector<StreamId> ids;
  ids.reserve(streams_.size());
  for (const auto& [id, stream] : streams_) {
    ids.push_back(id);
  }
  return ids;
}

StatusOr<Stream*> SummaryStore::GetStream(StreamId id) {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  return FindStreamLocked(id);
}

Status SummaryStore::Append(StreamId id, Timestamp ts, double value) {
  static Counter& appends = MetricRegistry::Default().GetCounter("ss_core_append_total");
  static LatencyHistogram& append_us =
      MetricRegistry::Default().GetHistogram("ss_core_append_us");
  static LatencyHistogram& lock_wait_us = MetricRegistry::Default().GetHistogram(
      "ss_core_stream_lock_wait_us", "op=\"append\"");
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  appends.Inc();
  // Latency and lock wait are sampled 1-in-64: the extra clock reads cost
  // ~8% of a raw append, well past the 5% instrumentation budget, while a
  // 1/64 sample keeps the histograms honest at any realistic ingest rate.
  if ((appends.value() & 63) == 0) {
    // The flight-recorder append event rides the same 1-in-64 sample so the
    // journal stays inside the <1% append-path overhead budget.
    FlightRecorder::Default().Record(FlightEventType::kAppend, id, 1);
    Stopwatch wait;
    std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
    lock_wait_us.Record(static_cast<uint64_t>(wait.ElapsedMicros()));
    ScopedTimer timer(append_us);
    return stream->Append(ts, value);
  }
  std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
  return stream->Append(ts, value);
}

Status SummaryStore::Append(StreamId id, double value) { return Append(id, NowMicros(), value); }

Status SummaryStore::AppendBatch(StreamId id, std::span<const Event> events) {
  static Counter& appends = MetricRegistry::Default().GetCounter("ss_core_append_total");
  static Counter& batches =
      MetricRegistry::Default().GetCounter("ss_core_append_batch_total");
  static LatencyHistogram& batch_events =
      MetricRegistry::Default().GetHistogram("ss_core_append_batch_events");
  if (events.empty()) {
    return Status::Ok();
  }
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  appends.Inc(events.size());
  batches.Inc();
  batch_events.Record(events.size());
  FlightRecorder::Default().Record(FlightEventType::kAppendBatch, id, events.size());
  std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
  return stream->AppendBatch(events);
}

Status SummaryStore::BeginLandmark(StreamId id, Timestamp ts) {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
  return stream->BeginLandmark(ts);
}

Status SummaryStore::EndLandmark(StreamId id, Timestamp ts) {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
  return stream->EndLandmark(ts);
}

StatusOr<QueryResult> SummaryStore::Query(StreamId id, const QuerySpec& spec) {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  return QueryLocked(*stream, spec);
}

StatusOr<QueryResult> SummaryStore::QueryLocked(Stream& stream, const QuerySpec& spec) {
  static Counter& queries = MetricRegistry::Default().GetCounter("ss_core_query_total");
  static LatencyHistogram& query_us =
      MetricRegistry::Default().GetHistogram("ss_core_query_us");
  static LatencyHistogram& lock_wait_us = MetricRegistry::Default().GetHistogram(
      "ss_core_stream_lock_wait_us", "op=\"query\"");
  queries.Inc();
  ScopedTimer timer(query_us);
  // Shared ownership for the whole query: concurrent queries overlap freely,
  // appends to this stream wait (and vice versa — see stream.h).
  Stopwatch wait;
  std::shared_lock<std::shared_mutex> stream_lock(stream.mutex());
  lock_wait_us.Record(static_cast<uint64_t>(wait.ElapsedMicros()));
  if (!spec.collect_trace) {
    return RunQuery(stream, spec);
  }
  // Explain mode: bracket the query with backend cache counters so the trace
  // reports the block-cache traffic this query caused. (Counters are global:
  // concurrent queries bleed into each other's deltas; explain is a
  // diagnostic, not an isolation domain.)
  KvBackend::CacheStats before = kv_->GetCacheStats();
  StatusOr<QueryResult> result = RunQuery(stream, spec);
  if (result.ok() && result->trace != nullptr) {
    KvBackend::CacheStats after = kv_->GetCacheStats();
    result->trace->block_cache_hits = after.hits - before.hits;
    result->trace->block_cache_misses = after.misses - before.misses;
  }
  return result;
}

StatusOr<std::vector<Event>> SummaryStore::QueryLandmark(StreamId id, Timestamp t1, Timestamp t2) {
  static Counter& queries = MetricRegistry::Default().GetCounter("ss_core_query_landmark_total");
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(id));
  queries.Inc();
  std::shared_lock<std::shared_mutex> stream_lock(stream->mutex());
  return stream->QueryLandmarks(t1, t2);
}

ThreadPool* SummaryStore::FleetPool() {
  if (fleet_query_threads_ == 1) {
    return nullptr;  // explicit serial configuration
  }
  std::call_once(pool_once_, [this] {
    size_t threads = fleet_query_threads_ == 0 ? ThreadPool::DefaultThreadCount()
                                               : fleet_query_threads_;
    static Gauge& queue_depth =
        MetricRegistry::Default().GetGauge("ss_core_fleet_pool_queue_depth");
    static LatencyHistogram& queue_us =
        MetricRegistry::Default().GetHistogram("ss_core_fleet_task_queue_us");
    fleet_pool_ = std::make_unique<ThreadPool>(
        threads, [](uint64_t queue_wait_us, size_t depth) {
          queue_us.Record(queue_wait_us);
          queue_depth.Set(static_cast<int64_t>(depth));
        });
    MetricRegistry::Default()
        .GetGauge("ss_core_fleet_pool_threads")
        .Set(static_cast<int64_t>(threads));
  });
  return fleet_pool_.get();
}

StatusOr<QueryResult> SummaryStore::QueryAggregate(std::span<const StreamId> ids,
                                                   const QuerySpec& spec) {
  if (ids.empty()) {
    return Status::InvalidArgument("QueryAggregate requires at least one stream");
  }
  const bool additive = spec.op == QueryOp::kCount || spec.op == QueryOp::kSum;
  const bool extremum = spec.op == QueryOp::kMin || spec.op == QueryOp::kMax;
  if (!additive && !extremum) {
    return Status::InvalidArgument("QueryAggregate supports count, sum, min, max");
  }
  static Counter& fleet_queries =
      MetricRegistry::Default().GetCounter("ss_core_query_aggregate_total");
  static LatencyHistogram& fleet_streams =
      MetricRegistry::Default().GetHistogram("ss_core_query_aggregate_streams");
  fleet_queries.Inc();
  fleet_streams.Record(ids.size());

  // Ascending stream-id order makes the floating-point merge deterministic
  // regardless of the caller's id order or worker scheduling.
  std::vector<StreamId> ordered(ids.begin(), ids.end());
  std::sort(ordered.begin(), ordered.end());

  // Fan the per-stream queries out on the worker pool. Each sub-query takes
  // the registry and stream locks itself; no lock is held while waiting on
  // the futures, so lifecycle writers can never deadlock against a fleet
  // query (a stream deleted mid-flight surfaces as its NotFound status).
  // `exists[i]` records that stream i's lookup succeeded, so a NotFound
  // from its query itself means only that it has no event in range.
  std::vector<char> exists(ordered.size(), 0);
  auto sub_query = [this, &spec, &ordered, &exists](size_t i) -> StatusOr<QueryResult> {
    std::shared_lock<std::shared_mutex> registry(registry_mu_);
    SS_ASSIGN_OR_RETURN(Stream * stream, FindStreamLocked(ordered[i]));
    exists[i] = 1;
    return QueryLocked(*stream, spec);
  };
  std::vector<StatusOr<QueryResult>> results;
  results.reserve(ordered.size());
  ThreadPool* pool = ordered.size() > 1 ? FleetPool() : nullptr;
  if (pool == nullptr) {
    for (size_t i = 0; i < ordered.size(); ++i) {
      results.push_back(sub_query(i));
    }
  } else {
    static Counter& fleet_tasks =
        MetricRegistry::Default().GetCounter("ss_core_fleet_tasks_total");
    std::vector<std::future<StatusOr<QueryResult>>> futures;
    futures.reserve(ordered.size());
    for (size_t i = 0; i < ordered.size(); ++i) {
      fleet_tasks.Inc();
      futures.push_back(pool->Submit([&sub_query, i] { return sub_query(i); }));
    }
    for (auto& future : futures) {
      results.push_back(future.get());
    }
  }

  QueryResult combined;
  combined.confidence = spec.confidence;
  combined.exact = true;
  double variance = 0.0;  // from per-stream CI half-widths, quadrature
  struct Candidate {
    double estimate;
    double ci_lo;
    double ci_hi;
  };
  std::vector<Candidate> candidates;  // extremum path only
  for (size_t i = 0; i < results.size(); ++i) {
    const StatusOr<QueryResult>& result = results[i];
    if (extremum && exists[i] && result.status().code() == StatusCode::kNotFound) {
      continue;  // no event of this stream in range: no extremum to offer
    }
    SS_RETURN_IF_ERROR(result.status());
    combined.windows_read += result->windows_read;
    combined.landmark_events += result->landmark_events;
    combined.exact = combined.exact && result->exact;
    if (result->degraded) {
      combined.degraded = true;
      combined.skipped_spans.insert(combined.skipped_spans.end(),
                                    result->skipped_spans.begin(),
                                    result->skipped_spans.end());
    }
    if (additive) {
      combined.estimate += result->estimate;
      double hw = result->CiWidth() / 2.0;
      variance += hw * hw;
    } else {
      candidates.push_back(Candidate{result->estimate, result->ci_lo, result->ci_hi});
    }
  }
  if (additive) {
    double hw = std::sqrt(variance);
    combined.ci_lo = combined.estimate - hw;
    combined.ci_hi = combined.estimate + hw;
    // Counts cannot go negative; sums over negative-valued streams can, so
    // only the count CI clamps its lower bound at zero.
    if (spec.op == QueryOp::kCount) {
      combined.ci_lo = std::max(0.0, combined.ci_lo);
    }
  } else {
    if (candidates.empty()) {
      return Status::NotFound("no data in query range");
    }
    const bool is_min = spec.op == QueryOp::kMin;
    size_t win = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      bool better = is_min ? candidates[i].estimate < candidates[win].estimate
                           : candidates[i].estimate > candidates[win].estimate;
      if (better) {
        win = i;
      }
    }
    combined.estimate = candidates[win].estimate;
    // Any stream whose interval overlaps the winner's could hold the true
    // extremum; the combined CI is the envelope of those candidates. With
    // all sub-answers exact this degenerates to the point estimate.
    combined.ci_lo = candidates[win].ci_lo;
    combined.ci_hi = candidates[win].ci_hi;
    for (const Candidate& c : candidates) {
      bool contender = is_min ? c.ci_lo <= candidates[win].ci_hi
                              : c.ci_hi >= candidates[win].ci_lo;
      if (contender) {
        combined.ci_lo = std::min(combined.ci_lo, c.ci_lo);
        combined.ci_hi = std::max(combined.ci_hi, c.ci_hi);
      }
    }
  }
  return combined;
}

Status SummaryStore::Flush() {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  for (auto& [id, stream] : streams_) {
    std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
    SS_RETURN_IF_ERROR(stream->Flush());
  }
  return kv_->Flush();
}

Status SummaryStore::EvictAll() {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  for (auto& [id, stream] : streams_) {
    std::unique_lock<std::shared_mutex> stream_lock(stream->mutex());
    SS_RETURN_IF_ERROR(stream->EvictAllWindows());
  }
  return kv_->Flush();
}

void SummaryStore::DropCaches() {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  for (auto& [id, stream] : streams_) {
    // Shared suffices: payload drops are guarded by the stream's internal
    // cache mutex, and clean/dirty flags only change under exclusive locks.
    std::shared_lock<std::shared_mutex> stream_lock(stream->mutex());
    stream->DropCleanWindowPayloads();
  }
  kv_->DropCaches();
}

uint64_t SummaryStore::TotalSizeBytes() const {
  std::shared_lock<std::shared_mutex> registry(registry_mu_);
  uint64_t bytes = 0;
  for (const auto& [id, stream] : streams_) {
    std::shared_lock<std::shared_mutex> stream_lock(stream->mutex());
    bytes += stream->SizeBytes();
  }
  return bytes;
}

}  // namespace ss
