// QueryTrace accounting against a hand-computed in-memory store: every count
// in the trace must match what the store's own introspection says the query
// had to touch.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include "src/core/keys.h"
#include "src/core/query.h"
#include "src/core/summary_store.h"
#include "src/storage/memory_backend.h"

namespace ss {
namespace {

StreamConfig SmallConfig() {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::Microbench();
  config.operators.bloom_bits = 256;
  config.operators.cms_width = 64;
  config.raw_threshold = 8;
  return config;
}

class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = SummaryStore::Open(StoreOptions{});
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto sid = store_->CreateStream(SmallConfig());
    ASSERT_TRUE(sid.ok());
    sid_ = *sid;
    for (int t = 1; t <= 500; ++t) {
      ASSERT_TRUE(store_->Append(sid_, t, static_cast<double>(t % 10)).ok());
    }
  }

  StatusOr<QueryResult> TracedQuery(QueryOp op, Timestamp t1, Timestamp t2) {
    QuerySpec spec{.t1 = t1, .t2 = t2, .op = op};
    spec.collect_trace = true;
    return store_->Query(sid_, spec);
  }

  size_t WindowCount() { return (*store_->GetStream(sid_))->window_count(); }

  std::unique_ptr<SummaryStore> store_;
  StreamId sid_ = 0;
};

TEST_F(TraceFixture, UntracedQueryCarriesNoTrace) {
  QuerySpec spec{.t1 = 1, .t2 = 500, .op = QueryOp::kCount};
  auto result = store_->Query(sid_, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
}

TEST_F(TraceFixture, FullRangeScanTouchesEveryWindowOnce) {
  auto result = TracedQuery(QueryOp::kCount, 1, 500);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const QueryTrace& trace = *result->trace;
  EXPECT_EQ(trace.op, "count");
  EXPECT_EQ(trace.t1, 1);
  EXPECT_EQ(trace.t2, 500);
  EXPECT_EQ(trace.windows_scanned, WindowCount());
  EXPECT_EQ(trace.raw_windows + trace.summary_windows, trace.windows_scanned);
  // Nothing was ever evicted, so every window is a cache hit and no bytes
  // cross the storage boundary.
  EXPECT_EQ(trace.window_cache_hits, trace.windows_scanned);
  EXPECT_EQ(trace.window_cache_misses, 0u);
  EXPECT_EQ(trace.bytes_fetched, 0u);
  EXPECT_EQ(trace.landmark_windows, 0u);
  EXPECT_EQ(trace.landmark_events, 0u);
  EXPECT_DOUBLE_EQ(trace.estimate, 500.0);
  EXPECT_TRUE(trace.exact);
  EXPECT_DOUBLE_EQ(trace.ci_width, trace.ci_hi - trace.ci_lo);
  EXPECT_GE(trace.elapsed_micros, 0.0);
}

TEST_F(TraceFixture, EvictedWindowsCountAsMissesWithBytes) {
  const size_t windows = WindowCount();
  ASSERT_TRUE(store_->EvictAll().ok());
  auto result = TracedQuery(QueryOp::kCount, 1, 500);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const QueryTrace& trace = *result->trace;
  EXPECT_EQ(trace.windows_scanned, windows);
  EXPECT_EQ(trace.window_cache_misses, windows);
  EXPECT_EQ(trace.window_cache_hits, 0u);
  EXPECT_GT(trace.bytes_fetched, 0u);
  EXPECT_DOUBLE_EQ(trace.estimate, 500.0);

  // The reload left every window resident again: a second scan is all hits.
  auto again = TracedQuery(QueryOp::kCount, 1, 500);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().trace->window_cache_hits, windows);
  EXPECT_EQ(again.value().trace->window_cache_misses, 0u);
  EXPECT_EQ(again.value().trace->bytes_fetched, 0u);
}

TEST_F(TraceFixture, MeanWalksTheWindowsOnce) {
  // Mean folds count and sum from one walk.
  auto result = TracedQuery(QueryOp::kMean, 1, 500);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->op, "mean");
  EXPECT_EQ(result->trace->windows_scanned, WindowCount());
}

TEST_F(TraceFixture, NarrowRangeScansFewerWindows) {
  auto result = TracedQuery(QueryOp::kCount, 250, 251);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_GE(result->trace->windows_scanned, 1u);
  EXPECT_LT(result->trace->windows_scanned, WindowCount());
}

TEST_F(TraceFixture, RenderMentionsEveryAccountingLine) {
  auto result = TracedQuery(QueryOp::kCount, 1, 500);
  ASSERT_TRUE(result.ok());
  std::string text = result->trace->Render();
  EXPECT_NE(text.find("windows scanned"), std::string::npos) << text;
  EXPECT_NE(text.find("bytes read"), std::string::npos) << text;
  EXPECT_NE(text.find("window cache"), std::string::npos) << text;
  EXPECT_NE(text.find("block cache"), std::string::npos) << text;
  EXPECT_NE(text.find("estimate"), std::string::npos) << text;
  // Phase attribution rides every traced query.
  EXPECT_NE(text.find("phases:"), std::string::npos) << text;
  EXPECT_NE(text.find("plan="), std::string::npos) << text;
  EXPECT_NE(text.find("window_scan="), std::string::npos) << text;
  EXPECT_NE(text.find("degraded:"), std::string::npos) << text;
  EXPECT_NE(text.find("no (0 quarantined windows"), std::string::npos) << text;
}

TEST_F(TraceFixture, PhaseSpansPopulateTheTrace) {
  auto result = TracedQuery(QueryOp::kCount, 1, 500);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const QueryTrace& trace = *result->trace;
  // Plan and window-scan always run for a count; every phase is non-negative
  // and the parts cannot exceed the whole.
  double total_phase_us = 0.0;
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    EXPECT_GE(trace.phase_us[i], 0.0) << QueryPhaseName(static_cast<QueryPhase>(i));
    total_phase_us += trace.phase_us[i];
  }
  EXPECT_GT(trace.phase_us[static_cast<size_t>(QueryPhase::kWindowScan)], 0.0);
  EXPECT_FALSE(trace.degraded);
  EXPECT_EQ(trace.quarantined_windows, 0u);
  EXPECT_EQ(trace.skipped_spans, 0u);
  // Spans are non-overlapping pieces of the traced query.
  EXPECT_LE(total_phase_us, trace.elapsed_micros * 1.5 + 100.0);
}

// A corrupt window quarantines at load time; the trace of the degraded query
// must say so — degraded flag, quarantined-window count, skipped spans — and
// Render() must surface it for `sstool query --explain`.
TEST(TraceDegraded, QuarantineShowsUpInTraceAndRender) {
  MemoryBackend kv;
  Stream stream(1, SmallConfig(), &kv);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(stream.Append(static_cast<Timestamp>(10 * i), 1.0).ok());
  }
  ASSERT_TRUE(stream.EvictAllWindows().ok());
  // Byte-flip one persisted window payload.
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(kv.Scan(WindowKeyPrefix(1), PrefixEnd(WindowKeyPrefix(1)),
                      [&](std::string_view key, std::string_view value) {
                        entries.emplace_back(std::string(key), std::string(value));
                        return true;
                      })
                  .ok());
  ASSERT_GE(entries.size(), 3u);
  std::string bad = entries[entries.size() / 2].second;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  ASSERT_TRUE(kv.Put(entries[entries.size() / 2].first, bad).ok());

  QuerySpec spec{.t1 = 0, .t2 = 20000, .op = QueryOp::kCount};
  spec.collect_trace = true;
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->degraded);
  ASSERT_NE(result->trace, nullptr);
  EXPECT_TRUE(result->trace->degraded);
  EXPECT_GE(result->trace->quarantined_windows, 1u);
  EXPECT_EQ(result->trace->skipped_spans, result->skipped_spans.size());
  std::string text = result->trace->Render();
  EXPECT_NE(text.find("yes (1 quarantined windows"), std::string::npos) << text;
  EXPECT_NE(text.find("skipped"), std::string::npos) << text;
}

TEST(QueryPhaseNames, EveryPhaseHasAName) {
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    EXPECT_NE(QueryPhaseName(static_cast<QueryPhase>(i)), nullptr);
    EXPECT_GT(std::string(QueryPhaseName(static_cast<QueryPhase>(i))).size(), 0u);
  }
}

TEST(TraceLandmarks, LandmarkWindowAndEventCounts) {
  auto store = SummaryStore::Open(StoreOptions{});
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(SmallConfig());
  ASSERT_TRUE(sid.ok());
  for (int t = 1; t <= 50; ++t) {
    ASSERT_TRUE((*store)->Append(*sid, t, 1.0).ok());
  }
  ASSERT_TRUE((*store)->BeginLandmark(*sid, 51).ok());
  for (int t = 51; t <= 60; ++t) {
    ASSERT_TRUE((*store)->Append(*sid, t, 1.0).ok());
  }
  ASSERT_TRUE((*store)->EndLandmark(*sid, 61).ok());
  for (int t = 62; t <= 100; ++t) {
    ASSERT_TRUE((*store)->Append(*sid, t, 1.0).ok());
  }

  QuerySpec spec{.t1 = 1, .t2 = 100, .op = QueryOp::kCount};
  spec.collect_trace = true;
  auto result = (*store)->Query(*sid, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->landmark_windows, 1u);
  EXPECT_EQ(result->trace->landmark_events, 10u);
  // 50 pre-landmark + 10 landmark + 39 post-landmark events in range.
  EXPECT_DOUBLE_EQ(result->trace->estimate, 99.0);
}

}  // namespace
}  // namespace ss
