// Silent-corruption defense suite: checksum envelopes, query-time
// quarantine with widened confidence intervals, load-time reconstruction,
// scrub detect/repair/heal, background scrubbing, and the on-disk (LSM +
// FaultFs) legs. The core property throughout: a corrupted window payload
// must never produce a silently wrong point estimate — every query either
// fails cleanly or returns a degraded answer whose CI covers the oracle
// ground truth. SS_FAULT_INJECT=1 (the CI corruption leg) enlarges the
// byte-flip matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analytics/reconstruct.h"
#include "src/common/serde.h"
#include "src/core/keys.h"
#include "src/core/query.h"
#include "src/core/stream.h"
#include "src/core/summary_store.h"
#include "src/obs/metrics.h"
#include "src/storage/checksum_envelope.h"
#include "src/storage/fault_fs.h"
#include "src/storage/lsm_store.h"
#include "src/storage/memory_backend.h"

namespace ss {
namespace {

using bench::Oracle;

// Small sketches keep serialized windows compact so the byte-flip matrix
// stays fast while still exercising every payload offset class.
StreamConfig TestConfig() {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::Microbench();
  config.operators.cms_width = 64;
  config.operators.cms_depth = 3;
  config.operators.bloom_bits = 256;
  config.raw_threshold = 16;
  return config;
}

// Deterministic stream: ts = 10*i, values cycle through {0.5 .. 6.5}.
Event TestEvent(uint64_t i) {
  return Event{static_cast<Timestamp>(10 * i),
               static_cast<double>(i % 7) + 0.5};
}

std::vector<std::pair<std::string, std::string>> WindowEntries(KvBackend& kv, StreamId sid) {
  std::vector<std::pair<std::string, std::string>> entries;
  EXPECT_TRUE(kv.Scan(WindowKeyPrefix(sid), PrefixEnd(WindowKeyPrefix(sid)),
                      [&](std::string_view key, std::string_view value) {
                        entries.emplace_back(std::string(key), std::string(value));
                        return true;
                      })
                  .ok());
  return entries;
}

uint64_t CounterValue(const std::string& name) {
  return MetricRegistry::Default().GetCounter(name).value();
}

// ---------------------------------------------------------------- envelope

TEST(ChecksumEnvelope, RoundtripAndEveryByteFlipDetected) {
  std::string payload = "summary-window-payload \x00\x01\xff bytes";
  payload.push_back('\0');
  std::string sealed = SealEnvelope(payload);
  ASSERT_TRUE(IsEnveloped(sealed));
  ASSERT_EQ(sealed.size(), payload.size() + kEnvelopeHeaderSize);
  auto open = OpenEnvelope(sealed);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(*open, payload);

  for (size_t pos = 0; pos < sealed.size(); ++pos) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::string bad = sealed;
      bad[pos] = static_cast<char>(bad[pos] ^ (1u << bit));
      auto result = OpenEnvelope(bad);
      if (pos < 2) {
        // A magic flip demotes the value to legacy passthrough; the payload
        // it returns is the mangled envelope, never the original bytes.
        // (Callers close this hole with decoded-identity checks.)
        if (result.ok()) {
          EXPECT_NE(*result, payload) << "flip at " << pos << " bit " << int(bit);
        }
      } else {
        ASSERT_FALSE(result.ok()) << "flip at " << pos << " bit " << int(bit);
        EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(ChecksumEnvelope, LegacyPayloadPassesThroughUnchecked) {
  std::string legacy = "plain old bytes";
  auto result = OpenEnvelope(legacy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, legacy);
  EXPECT_FALSE(IsEnveloped(legacy));
  // Empty values are legacy too.
  auto empty = OpenEnvelope("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ChecksumEnvelope, ForeignVersionWithValidCrcIsRejected) {
  // Build a version-2 envelope whose CRC is *valid* (mirrors SealEnvelope):
  // the decoder must refuse to parse a future format rather than guess.
  std::string payload = "future format";
  std::string sealed;
  sealed.push_back(kEnvelopeMagic0);
  sealed.push_back(kEnvelopeMagic1);
  char version = 2;
  sealed.push_back(version);
  uint32_t crc = Crc32c(std::string_view(&version, 1)) ^ Crc32c(payload);
  sealed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  sealed.append(payload);
  auto result = OpenEnvelope(sealed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------- query-time quarantine

TEST(QueryDegradation, CorruptWindowQuarantinesAndWidensCi) {
  MemoryBackend kv;
  Stream stream(1, TestConfig(), &kv);
  Oracle oracle;
  for (uint64_t i = 0; i < 2000; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
  }
  ASSERT_TRUE(stream.EvictAllWindows().ok());

  auto entries = WindowEntries(kv, 1);
  ASSERT_GE(entries.size(), 3u);
  const auto& [key, orig] = entries[entries.size() / 2];
  std::string bad = orig;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  ASSERT_TRUE(kv.Put(key, bad).ok());

  uint64_t quarantines_before = CounterValue("ss_core_window_quarantine_total");
  uint64_t degraded_before = CounterValue("ss_core_query_degraded_total");
  uint64_t retries_before = CounterValue("ss_storage_read_retry_total");

  QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto result = RunQuery(stream, count);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  ASSERT_FALSE(result->skipped_spans.empty());
  // The missing window is fully inside the query, so its element count is
  // known from the index: the count answer stays exact, just flagged.
  double truth = oracle.Count(count.t1, count.t2);
  EXPECT_NEAR(result->estimate, truth, 1e-6);
  EXPECT_LE(result->ci_lo, truth + 1e-6);
  EXPECT_GE(result->ci_hi, truth - 1e-6);
  EXPECT_EQ(CounterValue("ss_core_window_quarantine_total"), quarantines_before + 1);
  EXPECT_GE(CounterValue("ss_core_query_degraded_total"), degraded_before + 1);
  // The load was retried once before quarantining (sticky corruption).
  EXPECT_GE(CounterValue("ss_storage_read_retry_total"), retries_before + 1);
  EXPECT_EQ(stream.quarantined_window_count(), 1u);

  // Sum prices the lost elements with the stream's recorded value bounds.
  QuerySpec sum = count;
  sum.op = QueryOp::kSum;
  auto sum_result = RunQuery(stream, sum);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_TRUE(sum_result->degraded);
  EXPECT_FALSE(sum_result->exact);
  double sum_truth = oracle.Sum(sum.t1, sum.t2);
  EXPECT_LE(sum_result->ci_lo, sum_truth + 1e-6);
  EXPECT_GE(sum_result->ci_hi, sum_truth - 1e-6);

  // A second query is stable: already quarantined, no second quarantine.
  auto again = RunQuery(stream, count);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->degraded);
  EXPECT_EQ(CounterValue("ss_core_window_quarantine_total"), quarantines_before + 1);

  // A query range entirely before the corrupt span stays exact & clean.
  Timestamp clean_end = result->skipped_spans.front().first - 1;
  if (clean_end > oracle.first_ts()) {
    QuerySpec clean{.t1 = oracle.first_ts(), .t2 = clean_end, .op = QueryOp::kCount};
    auto clean_result = RunQuery(stream, clean);
    ASSERT_TRUE(clean_result.ok());
    EXPECT_FALSE(clean_result->degraded);
  }
}

TEST(QueryDegradation, MeanAndQuantilePropagateDegradation) {
  MemoryBackend kv;
  StreamConfig config = TestConfig();
  config.operators.quantile = true;
  Stream stream(1, config, &kv);
  Oracle oracle;
  for (uint64_t i = 0; i < 1500; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
  }
  ASSERT_TRUE(stream.EvictAllWindows().ok());
  auto entries = WindowEntries(kv, 1);
  ASSERT_GE(entries.size(), 3u);
  const auto& [key, orig] = entries[entries.size() / 3];
  std::string bad = orig;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
  ASSERT_TRUE(kv.Put(key, bad).ok());

  QuerySpec mean{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kMean};
  auto mean_result = RunQuery(stream, mean);
  ASSERT_TRUE(mean_result.ok()) << mean_result.status().ToString();
  EXPECT_TRUE(mean_result->degraded);
  EXPECT_FALSE(mean_result->skipped_spans.empty());
  double mean_truth = oracle.Sum(mean.t1, mean.t2) / oracle.Count(mean.t1, mean.t2);
  EXPECT_LE(mean_result->ci_lo, mean_truth + 1e-6);
  EXPECT_GE(mean_result->ci_hi, mean_truth - 1e-6);

  QuerySpec quant{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kQuantile,
                  .quantile_q = 0.5};
  auto q_result = RunQuery(stream, quant);
  ASSERT_TRUE(q_result.ok()) << q_result.status().ToString();
  EXPECT_TRUE(q_result->degraded);
  // Values cycle uniformly over {0.5..6.5}: the true median is 3.5; the
  // widened CI must cover it and the estimate must stay inside the CI.
  EXPECT_LE(q_result->ci_lo, 3.5 + 1e-6);
  EXPECT_GE(q_result->ci_hi, 3.5 - 1e-6);
  EXPECT_GE(q_result->estimate, q_result->ci_lo - 1e-9);
  EXPECT_LE(q_result->estimate, q_result->ci_hi + 1e-9);
}

TEST(QueryDegradation, ReconstructSamplesSkipsQuarantinedWindow) {
  MemoryBackend kv;
  StreamConfig config = TestConfig();
  config.operators.reservoir = true;
  Stream stream(1, config, &kv);
  for (uint64_t i = 0; i < 2000; ++i) {
    Event e = TestEvent(i);
    ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
  }
  ASSERT_TRUE(stream.EvictAllWindows().ok());
  auto entries = WindowEntries(kv, 1);
  ASSERT_GE(entries.size(), 3u);
  const auto& [key, orig] = entries[entries.size() / 2];
  std::string bad = orig;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  ASSERT_TRUE(kv.Put(key, bad).ok());

  // Reconstruction is the first reader of the corrupt window: it must
  // quarantine it and answer from the surviving windows.
  auto samples = ReconstructSamples(stream, TestEvent(0).ts, TestEvent(1999).ts);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  EXPECT_EQ(stream.quarantined_window_count(), 1u);
  ASSERT_FALSE(samples->empty());
  EXPECT_TRUE(std::is_sorted(samples->begin(), samples->end(),
                             [](const Event& a, const Event& b) { return a.ts < b.ts; }));
  QuerySpec count{.t1 = TestEvent(0).ts, .t2 = TestEvent(1999).ts, .op = QueryOp::kCount};
  auto counted = RunQuery(stream, count);
  ASSERT_TRUE(counted.ok());
  ASSERT_EQ(counted->skipped_spans.size(), 1u);
  auto [lost_lo, lost_hi] = counted->skipped_spans.front();
  for (const Event& sample : *samples) {
    // Every sample is a real event, and none comes from the lost span.
    EXPECT_EQ(sample.value, TestEvent(static_cast<uint64_t>(sample.ts / 10)).value);
    EXPECT_TRUE(sample.ts < lost_lo || sample.ts > lost_hi) << "sample at " << sample.ts;
  }
}

// The matrix: flip one byte at every payload offset class of several
// windows; every query must degrade (CI covering oracle truth) or fail
// cleanly — never a silent wrong point estimate.
TEST(QueryDegradation, CorruptionMatrixNeverSilentlyWrong) {
  const bool full = std::getenv("SS_FAULT_INJECT") != nullptr;
  StoreOptions options;  // in-memory backend
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  Oracle oracle;
  std::vector<Event> events;
  for (uint64_t i = 0; i < 1200; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    events.push_back(e);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  auto range_extremum = [&](Timestamp t1, Timestamp t2, bool want_min) {
    double out = want_min ? 1e300 : -1e300;
    for (const Event& e : events) {
      if (e.ts >= t1 && e.ts <= t2) {
        out = want_min ? std::min(out, e.value) : std::max(out, e.value);
      }
    }
    return out;
  };
  auto stream = (*store)->GetStream(*sid);
  ASSERT_TRUE(stream.ok());

  // Healthy cover spans, index-aligned with the KV window entries (both in
  // ascending cs order): per-window "inside" query ranges.
  auto views = (*stream)->WindowsOverlapping(oracle.first_ts(), oracle.last_ts());
  ASSERT_TRUE(views.ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_EQ(views->size(), entries.size());
  ASSERT_GE(entries.size(), 3u);

  std::vector<size_t> targets = {0, entries.size() / 2, entries.size() - 1};
  const size_t stride = full ? 7 : 37;
  uint64_t flips = 0;
  uint64_t degraded_answers = 0;
  uint64_t clean_errors = 0;

  for (size_t widx : targets) {
    const std::string& key = entries[widx].first;
    const std::string& orig = entries[widx].second;
    Timestamp in_t1 = (*views)[widx].cover_start;
    Timestamp in_t2 = (*views)[widx].cover_end - 1;
    std::vector<size_t> offsets;
    for (size_t pos = 0; pos < std::min<size_t>(orig.size(), 24); ++pos) {
      offsets.push_back(pos);  // magic, version, CRC, window header
    }
    for (size_t pos = 24; pos < orig.size(); pos += stride) {
      offsets.push_back(pos);  // raw events / summaries / trailing fields
    }
    for (size_t pos : offsets) {
      std::string bad = orig;
      bad[pos] = static_cast<char>(bad[pos] ^ (0x01u << (pos % 8)));
      if (bad == orig) {
        continue;
      }
      ++flips;
      ASSERT_TRUE((*store)->backend().Put(key, bad).ok());
      (*store)->DropCaches();

      struct Probe {
        QueryOp op;
        double value;
      };
      const Probe probes[] = {{QueryOp::kCount, 0},     {QueryOp::kSum, 0},
                              {QueryOp::kMin, 0},       {QueryOp::kMax, 0},
                              {QueryOp::kExistence, 2.5}, {QueryOp::kFrequency, 2.5}};
      struct Range {
        Timestamp t1, t2;
      };
      const Range ranges[] = {{oracle.first_ts(), oracle.last_ts()}, {in_t1, in_t2}};
      for (const Probe& probe : probes) {
        for (const Range& range : ranges) {
          QuerySpec spec{.t1 = range.t1, .t2 = range.t2, .op = probe.op, .value = probe.value};
          auto result = (*store)->Query(*sid, spec);
          if (!result.ok()) {
            ++clean_errors;  // a clean error is an acceptable outcome
            continue;
          }
          ASSERT_TRUE(result->degraded)
              << "silent answer: window " << widx << " offset " << pos << " op "
              << QueryOpName(probe.op);
          ++degraded_answers;
          double lo = result->ci_lo;
          double hi = result->ci_hi;
          EXPECT_GE(result->estimate, lo - 1e-9);
          EXPECT_LE(result->estimate, hi + 1e-9);
          switch (probe.op) {
            case QueryOp::kCount: {
              double truth = oracle.Count(range.t1, range.t2);
              EXPECT_LE(lo, truth + 1e-6) << "offset " << pos;
              EXPECT_GE(hi, truth - 1e-6) << "offset " << pos;
              break;
            }
            case QueryOp::kSum: {
              double truth = oracle.Sum(range.t1, range.t2);
              EXPECT_LE(lo, truth + 1e-6) << "offset " << pos;
              EXPECT_GE(hi, truth - 1e-6) << "offset " << pos;
              break;
            }
            case QueryOp::kMin: {
              double truth = range_extremum(range.t1, range.t2, /*want_min=*/true);
              EXPECT_LE(lo, truth + 1e-6) << "offset " << pos;
              EXPECT_GE(hi, truth - 1e-6) << "offset " << pos;
              break;
            }
            case QueryOp::kMax: {
              double truth = range_extremum(range.t1, range.t2, /*want_min=*/false);
              EXPECT_LE(lo, truth + 1e-6) << "offset " << pos;
              EXPECT_GE(hi, truth - 1e-6) << "offset " << pos;
              break;
            }
            case QueryOp::kExistence: {
              // 2.5 occurs throughout the stream; a degraded existence
              // answer must keep "present" inside its interval.
              EXPECT_GE(hi, 1.0 - 1e-6) << "offset " << pos;
              break;
            }
            case QueryOp::kFrequency: {
              double truth = oracle.Frequency(2.5, range.t1, range.t2);
              // CMS never undercounts and the degraded hi adds the full
              // missing element count, so both sides must cover.
              EXPECT_GE(hi, truth - 1e-6) << "offset " << pos;
              EXPECT_LE(lo, truth + 1e-6) << "offset " << pos;
              break;
            }
            default:
              break;
          }
        }
      }

      // Restore the clean bytes and heal via a dry-run scrub so the next
      // flip starts from a healthy store.
      ASSERT_TRUE((*store)->backend().Put(key, orig).ok());
      ScrubReport heal;
      ASSERT_TRUE((*store)->Scrub(false, &heal).ok());
      EXPECT_GE(heal.healed, 1u) << "offset " << pos;
      EXPECT_EQ((*stream)->quarantined_window_count(), 0u);
    }
  }
  EXPECT_GT(flips, 0u);
  EXPECT_GT(degraded_answers, 0u);
  // Sanity: the healthy store answers the full-range count exactly.
  QuerySpec spec{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto healthy = (*store)->Query(*sid, spec);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy->degraded);
  EXPECT_NEAR(healthy->estimate, oracle.Count(spec.t1, spec.t2), 1e-6);
}

TEST(QueryDegradation, LandmarkCorruptionFailsHard) {
  MemoryBackend kv;
  {
    Stream stream(1, TestConfig(), &kv);
    for (uint64_t i = 0; i < 300; ++i) {
      Event e = TestEvent(i);
      ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
    }
    ASSERT_TRUE(stream.BeginLandmark(3001).ok());
    for (uint64_t i = 301; i < 340; ++i) {
      Event e = TestEvent(i);
      ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
    }
    ASSERT_TRUE(stream.EndLandmark(3401).ok());
    for (uint64_t i = 341; i < 500; ++i) {
      Event e = TestEvent(i);
      ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
    }
    ASSERT_TRUE(stream.Flush().ok());
  }
  // Corrupt the landmark's stored payload.
  std::vector<std::pair<std::string, std::string>> landmarks;
  ASSERT_TRUE(kv.Scan(LandmarkKeyPrefix(1), PrefixEnd(LandmarkKeyPrefix(1)),
                      [&](std::string_view key, std::string_view value) {
                        landmarks.emplace_back(std::string(key), std::string(value));
                        return true;
                      })
                  .ok());
  ASSERT_EQ(landmarks.size(), 1u);
  std::string bad = landmarks[0].second;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
  ASSERT_TRUE(kv.Put(landmarks[0].first, bad).ok());

  auto reloaded = Stream::Load(1, &kv);
  ASSERT_TRUE(reloaded.ok());  // the stream still loads
  EXPECT_FALSE((*reloaded)->landmark_status().ok());
  // Landmarks are lossless by contract: queries fail hard, never degrade.
  QuerySpec spec{.t1 = 0, .t2 = 10000, .op = QueryOp::kCount};
  auto result = RunQuery(**reloaded, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------ load-time handling

TEST(LoadTime, ReopenQuarantinesCorruptWindowsIncludingAdjacentRuns) {
  MemoryBackend kv;
  Oracle oracle;
  {
    Stream stream(1, TestConfig(), &kv);
    for (uint64_t i = 0; i < 1200; ++i) {
      Event e = TestEvent(i);
      oracle.Add(e);
      ASSERT_TRUE(stream.Append(e.ts, e.value).ok());
    }
    ASSERT_TRUE(stream.EvictAllWindows().ok());
  }
  auto entries = WindowEntries(kv, 1);
  ASSERT_GE(entries.size(), 5u);
  // Corrupt two adjacent middle windows and the last window: the reopen path
  // must reconstruct a conservative shared span for the run and an exact
  // element range for each member.
  size_t mid = entries.size() / 2;
  for (size_t idx : {mid, mid + 1, entries.size() - 1}) {
    std::string bad = entries[idx].second;
    bad[bad.size() / 3] = static_cast<char>(bad[bad.size() / 3] ^ 0x08);
    ASSERT_TRUE(kv.Put(entries[idx].first, bad).ok());
  }

  auto stream = Stream::Load(1, &kv);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ((*stream)->quarantined_window_count(), 3u);

  // Full-range count: every missing window is fully covered, so the lost
  // element ranges are known exactly — the answer stays exact but degraded.
  QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto result = RunQuery(**stream, count);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->degraded);
  double truth = oracle.Count(count.t1, count.t2);
  EXPECT_LE(result->ci_lo, truth + 1e-6);
  EXPECT_GE(result->ci_hi, truth - 1e-6);

  // Sum over the full range covers truth via the persisted value bounds.
  QuerySpec sum = count;
  sum.op = QueryOp::kSum;
  auto sum_result = RunQuery(**stream, sum);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_TRUE(sum_result->degraded);
  double sum_truth = oracle.Sum(sum.t1, sum.t2);
  EXPECT_LE(sum_result->ci_lo, sum_truth + 1e-6);
  EXPECT_GE(sum_result->ci_hi, sum_truth - 1e-6);

  // Sub-ranges anywhere inside the stream still cover the truth.
  Timestamp span = oracle.last_ts() - oracle.first_ts();
  for (int frac = 0; frac < 8; ++frac) {
    Timestamp t1 = oracle.first_ts() + span * frac / 8;
    Timestamp t2 = t1 + span / 4;
    QuerySpec sub{.t1 = t1, .t2 = t2, .op = QueryOp::kCount};
    auto sub_result = RunQuery(**stream, sub);
    ASSERT_TRUE(sub_result.ok()) << sub_result.status().ToString();
    double sub_truth = oracle.Count(t1, t2);
    EXPECT_LE(sub_result->ci_lo, sub_truth + 1e-6) << "frac " << frac;
    EXPECT_GE(sub_result->ci_hi, sub_truth - 1e-6) << "frac " << frac;
  }
}

// ------------------------------------------------------------------- scrub

TEST(Scrub, DryRunDetectsWithoutMutating) {
  StoreOptions options;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  for (uint64_t i = 0; i < 800; ++i) {
    Event e = TestEvent(i);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_GE(entries.size(), 3u);
  const auto& [key, orig] = entries[1];
  std::string bad = orig;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x20);
  ASSERT_TRUE((*store)->backend().Put(key, bad).ok());

  uint64_t errors_before = CounterValue("ss_core_scrub_errors_total");
  uint64_t windows_before = CounterValue("ss_core_scrub_windows_total");
  ScrubReport report;
  ASSERT_TRUE((*store)->Scrub(false, &report).ok());
  EXPECT_EQ(report.windows_checked, entries.size());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(CounterValue("ss_core_scrub_errors_total"), errors_before + 1);
  EXPECT_EQ(CounterValue("ss_core_scrub_windows_total"), windows_before + entries.size());

  // Dry run: the KV copy is untouched (still the corrupt bytes) and no
  // window was merged away.
  auto stored = (*store)->backend().Get(key);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, bad);
  auto stream = (*store)->GetStream(*sid);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->quarantined_window_count(), 1u);
  EXPECT_EQ((*stream)->window_count(), entries.size());
}

TEST(Scrub, RepairMergesQuarantinedWindowIntoLeftNeighbor) {
  StoreOptions options;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  Oracle oracle;
  for (uint64_t i = 0; i < 1000; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_GE(entries.size(), 4u);
  const auto& [key, orig] = entries[entries.size() / 2];
  std::string bad = orig;
  bad[kEnvelopeHeaderSize + 2] = static_cast<char>(bad[kEnvelopeHeaderSize + 2] ^ 0x7f);
  ASSERT_TRUE((*store)->backend().Put(key, bad).ok());

  uint64_t repaired_before = CounterValue("ss_core_scrub_repaired_total");
  ScrubReport report;
  ASSERT_TRUE((*store)->Scrub(true, &report).ok());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_GE(report.repaired, 1u);
  EXPECT_GE(CounterValue("ss_core_scrub_repaired_total"), repaired_before + 1);

  auto stream = (*store)->GetStream(*sid);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->quarantined_window_count(), 0u);
  EXPECT_EQ((*stream)->window_count(), entries.size() - 1);
  // The corrupt key was deleted by the repair flush.
  auto gone = (*store)->backend().Get(key);
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // The lost span survives as lost_count on the left neighbor: a full-range
  // count is exact (the lost element count is known) but flagged degraded.
  QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto result = (*store)->Query(*sid, count);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  double truth = oracle.Count(count.t1, count.t2);
  EXPECT_LE(result->ci_lo, truth + 1e-6);
  EXPECT_GE(result->ci_hi, truth - 1e-6);

  // And it survives reload: lost_count is serialized with the window.
  auto reloaded = Stream::Load(*sid, &(*store)->backend());
  ASSERT_TRUE(reloaded.ok());
  auto re_result = RunQuery(**reloaded, count);
  ASSERT_TRUE(re_result.ok());
  EXPECT_TRUE(re_result->degraded);
  EXPECT_LE(re_result->ci_lo, truth + 1e-6);
  EXPECT_GE(re_result->ci_hi, truth - 1e-6);

  // A follow-up scrub over the healthy store is clean.
  ScrubReport clean;
  ASSERT_TRUE((*store)->Scrub(true, &clean).ok());
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_EQ(clean.repaired, 0u);
}

TEST(Scrub, RepairAbsorbsQuarantinedHeadRunIntoRightNeighbor) {
  // The stream's first windows have no left neighbor; a corrupt head run
  // must merge rightward into the first intact window, which is re-keyed.
  StoreOptions options;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  Oracle oracle;
  for (uint64_t i = 0; i < 1000; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_GE(entries.size(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    const auto& [key, orig] = entries[i];
    std::string bad = orig;
    bad[kEnvelopeHeaderSize + 1] = static_cast<char>(bad[kEnvelopeHeaderSize + 1] ^ 0x55);
    ASSERT_TRUE((*store)->backend().Put(key, bad).ok());
  }

  ScrubReport report;
  ASSERT_TRUE((*store)->Scrub(true, &report).ok());
  EXPECT_EQ(report.errors, 2u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_GE(report.repaired, 2u);

  auto stream = (*store)->GetStream(*sid);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->quarantined_window_count(), 0u);
  // Two head windows merged into the (re-keyed) third: net loss of two slots.
  EXPECT_EQ((*stream)->window_count(), entries.size() - 2);
  // The survivor was re-keyed onto the head key; the rest of the run and
  // the survivor's old key are tombstoned.
  EXPECT_TRUE((*store)->backend().Get(entries[0].first).ok());
  EXPECT_EQ((*store)->backend().Get(entries[1].first).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*store)->backend().Get(entries[2].first).status().code(),
            StatusCode::kNotFound);

  // The lost head span is an explicit lost_count: full-range count stays
  // exact but degraded, and the CI covers the truth across restarts.
  QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto result = (*store)->Query(*sid, count);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  double truth = oracle.Count(count.t1, count.t2);
  EXPECT_LE(result->ci_lo, truth + 1e-6);
  EXPECT_GE(result->ci_hi, truth - 1e-6);
  auto reloaded = Stream::Load(*sid, &(*store)->backend());
  ASSERT_TRUE(reloaded.ok());
  auto re_result = RunQuery(**reloaded, count);
  ASSERT_TRUE(re_result.ok());
  EXPECT_TRUE(re_result->degraded);
  EXPECT_LE(re_result->ci_lo, truth + 1e-6);
  EXPECT_GE(re_result->ci_hi, truth - 1e-6);

  ScrubReport clean;
  ASSERT_TRUE((*store)->Scrub(true, &clean).ok());
  EXPECT_EQ(clean.errors, 0u);
  EXPECT_EQ(clean.repaired, 0u);
}

TEST(Scrub, ResidentCopyRepairsCorruptKvInPlace) {
  StoreOptions options;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  for (uint64_t i = 0; i < 600; ++i) {
    Event e = TestEvent(i);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  // Flush persists, but payloads stay resident (no evict): scrub can repair
  // a corrupt KV copy by re-flushing from memory.
  ASSERT_TRUE((*store)->Flush().ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_GE(entries.size(), 2u);
  const auto& [key, orig] = entries[0];
  std::string bad = orig;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x02);
  ASSERT_TRUE((*store)->backend().Put(key, bad).ok());

  ScrubReport report;
  ASSERT_TRUE((*store)->Scrub(true, &report).ok());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_GE(report.repaired, 1u);

  // The rewritten copy verifies; no window was lost, no degradation remains.
  auto stream = (*store)->GetStream(*sid);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ((*stream)->quarantined_window_count(), 0u);
  EXPECT_EQ((*stream)->window_count(), entries.size());
  ScrubReport clean;
  ASSERT_TRUE((*store)->Scrub(false, &clean).ok());
  EXPECT_EQ(clean.errors, 0u);
}

TEST(Scrub, CorruptLandmarkIsRepairedFromMemory) {
  StoreOptions options;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE((*store)->Append(*sid, 10, 1.0).ok());
  ASSERT_TRUE((*store)->BeginLandmark(*sid, 20).ok());
  ASSERT_TRUE((*store)->Append(*sid, 30, 2.0).ok());
  ASSERT_TRUE((*store)->EndLandmark(*sid, 40).ok());
  ASSERT_TRUE((*store)->Append(*sid, 50, 3.0).ok());
  ASSERT_TRUE((*store)->Flush().ok());

  std::vector<std::pair<std::string, std::string>> landmarks;
  ASSERT_TRUE((*store)->backend()
                  .Scan(LandmarkKeyPrefix(*sid), PrefixEnd(LandmarkKeyPrefix(*sid)),
                        [&](std::string_view key, std::string_view value) {
                          landmarks.emplace_back(std::string(key), std::string(value));
                          return true;
                        })
                  .ok());
  ASSERT_EQ(landmarks.size(), 1u);
  std::string bad = landmarks[0].second;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x04);
  ASSERT_TRUE((*store)->backend().Put(landmarks[0].first, bad).ok());

  ScrubReport report;
  ASSERT_TRUE((*store)->Scrub(true, &report).ok());
  EXPECT_EQ(report.landmarks_checked, 1u);
  EXPECT_EQ(report.errors, 1u);
  EXPECT_GE(report.repaired, 1u);
  // The re-persisted copy verifies again.
  ScrubReport clean;
  ASSERT_TRUE((*store)->Scrub(false, &clean).ok());
  EXPECT_EQ(clean.errors, 0u);
}

TEST(Scrub, BackgroundThreadDetectsAndRepairs) {
  StoreOptions options;
  options.scrub_interval_ms = 20;
  options.scrub_repair = true;
  auto store = SummaryStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(TestConfig());
  ASSERT_TRUE(sid.ok());
  Oracle oracle;
  for (uint64_t i = 0; i < 600; ++i) {
    Event e = TestEvent(i);
    oracle.Add(e);
    ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  auto entries = WindowEntries((*store)->backend(), *sid);
  ASSERT_GE(entries.size(), 3u);
  const auto& [key, orig] = entries[entries.size() / 2];
  std::string bad = orig;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x11);
  ASSERT_TRUE((*store)->backend().Put(key, bad).ok());

  // The background thread must notice and repair without any explicit call.
  uint64_t cycles_before = CounterValue("ss_core_scrub_cycles_total");
  bool repaired = false;
  for (int i = 0; i < 500 && !repaired; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    repaired = (*store)->backend().Get(key).status().code() == StatusCode::kNotFound;
  }
  EXPECT_TRUE(repaired) << "background scrub never repaired the corrupt window";
  EXPECT_GT(CounterValue("ss_core_scrub_cycles_total"), cycles_before);

  QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
  auto result = (*store)->Query(*sid, count);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->degraded);
  double truth = oracle.Count(count.t1, count.t2);
  EXPECT_LE(result->ci_lo, truth + 1e-6);
  EXPECT_GE(result->ci_hi, truth - 1e-6);
  store->reset();  // destructor must stop and join the scrub thread
}

// ------------------------------------------------------------ on-disk legs

TEST(DiskCorruption, SstBitRotDegradesOrFailsCleanlyAndScrubHeals) {
  bench::ScopedTempDir dir("corruption_sst");
  FaultFs fs;
  SetFileOpsForTest(&fs);
  {
    StoreOptions options;
    options.dir = dir.path();
    options.lsm.memtable_bytes = 16 << 10;  // force data into SSTables
    auto store = SummaryStore::Open(options);
    ASSERT_TRUE(store.ok());
    auto sid = (*store)->CreateStream(TestConfig());
    ASSERT_TRUE(sid.ok());
    Oracle oracle;
    for (uint64_t i = 0; i < 3000; ++i) {
      Event e = TestEvent(i);
      oracle.Add(e);
      ASSERT_TRUE((*store)->Append(*sid, e.ts, e.value).ok());
    }
    ASSERT_TRUE((*store)->EvictAll().ok());
    QuerySpec count{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
    double truth = oracle.Count(count.t1, count.t2);
    {
      auto healthy = (*store)->Query(*sid, count);
      ASSERT_TRUE(healthy.ok());
      EXPECT_FALSE(healthy->degraded);
      EXPECT_NEAR(healthy->estimate, truth, 1e-6);
    }

    auto names = ListDir(dir.path());
    ASSERT_TRUE(names.ok());
    std::vector<std::string> ssts;
    for (const std::string& name : *names) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
        ssts.push_back(dir.path() + "/" + name);
      }
    }
    ASSERT_FALSE(ssts.empty()) << "memtable never spilled to SSTables";

    // Flip bytes mid-file in every table: reads see bit rot.
    for (const std::string& sst : ssts) {
      struct stat st{};
      ASSERT_EQ(::stat(sst.c_str(), &st), 0);
      fs.CorruptRange(sst, static_cast<uint64_t>(st.st_size) / 2, 32, 0xff);
    }
    (*store)->DropCaches();
    auto result = (*store)->Query(*sid, count);
    if (result.ok()) {
      // Either the rot missed every block this query reads (answer exact)
      // or the query degraded with a covering CI — never silently wrong.
      if (!result->degraded) {
        EXPECT_NEAR(result->estimate, truth, 1e-6);
      } else {
        EXPECT_LE(result->ci_lo, truth + 1e-6);
        EXPECT_GE(result->ci_hi, truth - 1e-6);
      }
    }

    // "Replace the disk": clear the rot, scrub heals the quarantined spans,
    // and the store answers exactly again.
    for (const std::string& sst : ssts) {
      fs.ClearCorruption(sst);
    }
    ScrubReport heal;
    ASSERT_TRUE((*store)->Scrub(false, &heal).ok());
    auto recovered = (*store)->Query(*sid, count);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE(recovered->degraded);
    EXPECT_NEAR(recovered->estimate, truth, 1e-6);
  }
  SetFileOpsForTest(nullptr);
}

// Satellite regression: a block that fails its checksum must not be served
// from or inserted into the block cache, and a failed Get must not be
// negatively cached — corrupt -> error -> repair -> success.
TEST(BlockCache, CorruptBlockNeverCachedAndErrorNotSticky) {
  bench::ScopedTempDir dir("corruption_blockcache");
  FaultFs fs;
  SetFileOpsForTest(&fs);
  {
    LsmOptions options;
    options.memtable_bytes = 8 << 10;
    auto store = LsmStore::Open(dir.path(), options);
    ASSERT_TRUE(store.ok());
    auto key = [](int i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "key%05d", i);
      return std::string(buf);
    };
    auto value = [](int i) { return std::string(100, static_cast<char>('a' + i % 26)); };
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*store)->Put(key(i), value(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_GT((*store)->sstable_count(), 0u);
    (*store)->DropCaches();

    auto names = ListDir(dir.path());
    ASSERT_TRUE(names.ok());
    std::vector<std::string> ssts;
    for (const std::string& name : *names) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
        ssts.push_back(dir.path() + "/" + name);
      }
    }
    ASSERT_FALSE(ssts.empty());
    // Rot the front of every table — data blocks live first.
    for (const std::string& sst : ssts) {
      fs.CorruptRange(sst, 4, 16, 0x5a);
    }

    // At least one key must fail its checksum; any key that still succeeds
    // must return the exact value (the block CRC rules out silent rot).
    std::vector<int> failed;
    for (int i = 0; i < 400; ++i) {
      auto got = (*store)->Get(key(i));
      if (got.ok()) {
        EXPECT_EQ(*got, value(i)) << "silently corrupt value for " << key(i);
      } else {
        failed.push_back(i);
      }
    }
    ASSERT_FALSE(failed.empty()) << "corruption was never detected";

    // Repair the disk. WITHOUT dropping caches: if the corrupt block had
    // been cached, or the failure negatively cached, these Gets would still
    // fail (or worse, return rotten bytes).
    for (const std::string& sst : ssts) {
      fs.ClearCorruption(sst);
    }
    for (int i : failed) {
      auto got = (*store)->Get(key(i));
      ASSERT_TRUE(got.ok()) << "error was sticky for " << key(i) << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, value(i));
    }
    // And the repaired blocks are cacheable again: a re-read hits the cache.
    uint64_t hits_before = (*store)->cache_hits();
    for (int i : failed) {
      ASSERT_TRUE((*store)->Get(key(i)).ok());
    }
    EXPECT_GT((*store)->cache_hits(), hits_before);
  }
  SetFileOpsForTest(nullptr);
}

}  // namespace
}  // namespace ss
