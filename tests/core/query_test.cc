#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/analytics/reconstruct.h"
#include "src/core/keys.h"
#include "src/core/query.h"
#include "src/core/stream.h"
#include "src/random/rng.h"
#include "src/storage/memory_backend.h"

namespace ss {
namespace {

StreamConfig FullConfig(uint64_t raw_threshold = 0) {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::Full();
  config.operators.bloom_bits = 1024;
  config.operators.cms_width = 512;
  config.operators.hist_lo = 0.0;
  config.operators.hist_hi = 100.0;
  config.raw_threshold = raw_threshold;
  config.seed = 3;
  return config;
}

// Stream of 1000 regular events, value = ts % 50.
void FillRegular(Stream& stream, int n = 1000) {
  for (int t = 1; t <= n; ++t) {
    ASSERT_TRUE(stream.Append(t, static_cast<double>(t % 50)).ok());
  }
}

TEST(Query, FullRangeCountIsExact) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kCount};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 1000.0);
  EXPECT_TRUE(result->exact);
  EXPECT_EQ(result->ci_lo, result->ci_hi);
}

TEST(Query, FullRangeSumIsExact) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);
  double expected = 0;
  for (int t = 1; t <= 1000; ++t) {
    expected += t % 50;
  }
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kSum};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, expected);
}

TEST(Query, SubWindowCountProportionalOnRegularArrivals) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 2000);
  // A range covering roughly a quarter of old data.
  QuerySpec spec{.t1 = 100, .t2 = 300, .op = QueryOp::kCount};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  // Regular arrivals: proportional estimate should be near-perfect.
  EXPECT_NEAR(result->estimate, 201.0, 10.0);
  EXPECT_LE(result->ci_lo, result->estimate);
  EXPECT_GE(result->ci_hi, result->estimate);
  // Regular arrivals have near-zero interarrival variance => tight CI.
  EXPECT_LT(result->ci_hi - result->ci_lo, 20.0);
}

TEST(Query, NegativeSumCiNotClampedAtZero) {
  // A sum over negative values must keep a fully negative interval; the old
  // unconditional max(0, lo) clamp inverted it (lo = 0 > hi < 0).
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  for (int t = 1; t <= 1000; ++t) {
    ASSERT_TRUE(stream.Append(t, -10.0 - (t % 50)).ok());
  }
  QuerySpec spec{.t1 = 333, .t2 = 1000, .op = QueryOp::kSum};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->estimate, 0.0);
  EXPECT_LE(result->ci_lo, result->estimate);
  EXPECT_GE(result->ci_hi, result->estimate);
  // The whole interval sits below zero.
  EXPECT_LT(result->ci_hi, 0.0);
}

TEST(Query, BurstyCountCiLowerBoundKeepsExactPart) {
  // With extremely bursty interarrivals (cv^2 ~ 1000) the normal interval
  // for the partial window is much wider than its mean; the lower bound
  // must still never drop below the exactly-counted suffix of the range.
  // (Previously it was only clamped at zero.)
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  const int n = 1200;
  std::vector<Timestamp> ts(n + 1);
  Timestamp t = 0;
  for (int i = 1; i <= n; ++i) {
    t += (i % 100 == 0) ? 1000000 : 1;
    ts[i] = t;
    ASSERT_TRUE(stream.Append(t, 1.0).ok());
  }
  // Furthest-back boundary from which the suffix query is still exact.
  int k_exact = 0;
  for (int k = n; k >= 1; --k) {
    QuerySpec probe{.t1 = ts[k], .t2 = ts[n], .op = QueryOp::kCount};
    auto r = RunQuery(stream, probe);
    ASSERT_TRUE(r.ok());
    if (!r->exact) {
      break;
    }
    k_exact = k;
  }
  ASSERT_GT(k_exact, 1);
  const double exact_suffix = n - k_exact + 1;

  QuerySpec spec{.t1 = ts[311], .t2 = ts[n], .op = QueryOp::kCount};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  // Every window fully inside [ts[k_exact], ts[n]] is also fully inside the
  // wider range, so its exact part — and hence the floored lower bound —
  // is at least the exact suffix count.
  EXPECT_GE(result->ci_lo, exact_suffix);
  EXPECT_LE(result->ci_lo, result->estimate);
  EXPECT_GE(result->ci_hi, result->estimate);
}

TEST(Query, ErrorDecreasesWithQueryLength) {
  // §7.2.2: "Error is generally expected to decrease with length."
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  Rng rng(5);
  Timestamp t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + static_cast<Timestamp>(rng.NextBounded(3));
    ASSERT_TRUE(stream.Append(t, 1.0).ok());
  }
  QuerySpec small{.t1 = 100, .t2 = 140, .op = QueryOp::kCount};
  QuerySpec large{.t1 = 100, .t2 = static_cast<Timestamp>(static_cast<double>(t) * 0.8),
                  .op = QueryOp::kCount};
  auto small_result = RunQuery(stream, small);
  auto large_result = RunQuery(stream, large);
  ASSERT_TRUE(small_result.ok());
  ASSERT_TRUE(large_result.ok());
  double small_rel = small_result->CiWidth() / std::max(1.0, small_result->estimate);
  double large_rel = large_result->CiWidth() / std::max(1.0, large_result->estimate);
  EXPECT_LT(large_rel, small_rel);
}

TEST(Query, PoissonCiCoversTruth) {
  // Statistical check of the Appendix B machinery: on Poisson arrivals, the
  // 95% CI should contain the true count for the vast majority of random
  // sub-range queries.
  MemoryBackend kv;
  StreamConfig config = FullConfig();
  config.arrival_model = ArrivalModel::kPoisson;
  Stream stream(1, config, &kv);

  Rng arrival_rng(17);
  std::vector<Timestamp> arrivals;
  double t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += arrival_rng.NextExponential(0.5);  // mean gap 2 units
    arrivals.push_back(static_cast<Timestamp>(t));
    ASSERT_TRUE(stream.Append(arrivals.back(), 1.0).ok());
  }

  Rng query_rng(18);
  int covered = 0;
  int trials = 200;
  for (int i = 0; i < trials; ++i) {
    Timestamp lo = static_cast<Timestamp>(query_rng.NextBounded(static_cast<uint64_t>(t * 0.8)));
    Timestamp hi = lo + 50 + static_cast<Timestamp>(query_rng.NextBounded(2000));
    QuerySpec spec{.t1 = lo, .t2 = hi, .op = QueryOp::kCount};
    auto result = RunQuery(stream, spec);
    ASSERT_TRUE(result.ok());
    double truth = 0;
    for (Timestamp a : arrivals) {
      if (a >= lo && a <= hi) {
        ++truth;
      }
    }
    if (truth >= result->ci_lo - 1e-9 && truth <= result->ci_hi + 1e-9) {
      ++covered;
    }
  }
  // Allow slack for model mismatch at window boundaries; nominal is 95%.
  EXPECT_GE(covered, trials * 80 / 100);
}

TEST(Query, FrequencyFullRangeTracksTruth) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  Rng rng(7);
  std::map<int, int> truth;
  for (int t = 1; t <= 5000; ++t) {
    int v = static_cast<int>(rng.NextBounded(40));
    ++truth[v];
    ASSERT_TRUE(stream.Append(t, static_cast<double>(v)).ok());
  }
  QuerySpec spec{.t1 = 1, .t2 = 5000, .op = QueryOp::kFrequency, .value = 7.0};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  // Count-mean-min corrected estimate: small symmetric noise around truth.
  EXPECT_NEAR(result->estimate, truth[7], truth[7] * 0.15 + 20);
}

TEST(Query, ExistenceFindsPresentValue) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);  // values 0..49 everywhere
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kExistence, .value = 25.0};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->bool_answer);
  EXPECT_GT(result->estimate, 0.5);
}

TEST(Query, ExistenceRejectsAbsentValue) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kExistence, .value = 777.0};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  // Bloom false positives possible per window but should not dominate.
  EXPECT_FALSE(result->bool_answer);
}

TEST(Query, DistinctCountReasonable) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);  // exactly 50 distinct values
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kDistinct};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 50.0, 5.0);
}

TEST(Query, QuantileMedianReasonable) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 5000);  // uniform over 0..49
  QuerySpec spec{.t1 = 1, .t2 = 5000, .op = QueryOp::kQuantile, .quantile_q = 0.5};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 24.5, 5.0);
}

TEST(Query, MinMaxExactOverFullRange) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream);
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kMin};
  auto min_result = RunQuery(stream, spec);
  ASSERT_TRUE(min_result.ok());
  EXPECT_DOUBLE_EQ(min_result->estimate, 0.0);
  spec.op = QueryOp::kMax;
  auto max_result = RunQuery(stream, spec);
  EXPECT_DOUBLE_EQ(max_result->estimate, 49.0);
}

TEST(Query, MinMaxInsideOneWindowBracketsTheTruth) {
  // Values equal their timestamps, so the true extrema of [t1, t2] are t1
  // and t2. Strictly inside one summarized window nothing is witnessed; the
  // window's opposite extreme must close the interval, not its own bound.
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  for (int t = 1; t <= 1000; ++t) {
    ASSERT_TRUE(stream.Append(t, static_cast<double>(t)).ok());
  }
  auto views = stream.WindowsOverlapping(1, 1000);
  ASSERT_TRUE(views.ok());
  const Stream::WindowView& oldest = views->front();
  ASSERT_FALSE(oldest.window->is_raw());
  ASSERT_GE(oldest.cover_end - oldest.cover_start, 10);
  const Timestamp t1 = oldest.cover_start + 3;
  const Timestamp t2 = oldest.cover_end - 4;
  for (QueryOp op : {QueryOp::kMin, QueryOp::kMax}) {
    QuerySpec spec{.t1 = t1, .t2 = t2, .op = op};
    auto result = RunQuery(stream, spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const double truth = static_cast<double>(op == QueryOp::kMin ? t1 : t2);
    EXPECT_FALSE(result->exact) << QueryOpName(op);
    EXPECT_LE(result->ci_lo, truth) << QueryOpName(op);
    EXPECT_GE(result->ci_hi, truth) << QueryOpName(op);
    EXPECT_GE(result->estimate, result->ci_lo) << QueryOpName(op);
    EXPECT_LE(result->estimate, result->ci_hi) << QueryOpName(op);
  }
}

TEST(Query, MeanCombinesCountAndSum) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  for (int t = 1; t <= 1000; ++t) {
    ASSERT_TRUE(stream.Append(t, 10.0).ok());
  }
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kMean};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 10.0, 1e-9);
}

TEST(Query, ValueRangeCountViaHistogram) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 5000);  // values 0..49 uniform, hist range [0,100) x64
  // Full time range: histogram interpolation over a uniform value mix.
  QuerySpec spec{.t1 = 1, .t2 = 5000, .op = QueryOp::kValueRangeCount,
                 .value_lo = 10.0, .value_hi = 20.0};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  // True selectivity: values 10..19 of 0..49 => 20% of 5000 = 1000; the
  // 64-bucket histogram over [0,100) interpolates integer values with some
  // bucket-edge smear.
  EXPECT_NEAR(result->estimate, 1000.0, 120.0);

  // Sub time range: proportional share with a CI.
  QuerySpec partial = spec;
  partial.t1 = 1000;
  partial.t2 = 3000;
  auto partial_result = RunQuery(stream, partial);
  ASSERT_TRUE(partial_result.ok());
  EXPECT_NEAR(partial_result->estimate, 400.0, 80.0);
  EXPECT_LE(partial_result->ci_lo, partial_result->estimate);
  EXPECT_GE(partial_result->ci_hi, partial_result->estimate);

  // Empty and inverted value ranges are rejected.
  QuerySpec empty = spec;
  empty.value_lo = 5.0;
  empty.value_hi = 5.0;
  EXPECT_EQ(RunQuery(stream, empty).status().code(), StatusCode::kInvalidArgument);
}

TEST(Query, ValueRangeCountRequiresHistogram) {
  MemoryBackend kv;
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::AggregatesOnly();
  config.raw_threshold = 0;
  Stream stream(1, config, &kv);
  FillRegular(stream, 200);
  QuerySpec spec{.t1 = 1, .t2 = 200, .op = QueryOp::kValueRangeCount,
                 .value_lo = 0.0, .value_hi = 10.0};
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kFailedPrecondition);
}

TEST(Query, MissingOperatorReportsFailedPrecondition) {
  MemoryBackend kv;
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::AggregatesOnly();
  config.raw_threshold = 0;
  Stream stream(1, config, &kv);
  FillRegular(stream);
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kExistence, .value = 1.0};
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kFailedPrecondition);
  spec.op = QueryOp::kFrequency;
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kFailedPrecondition);
  spec.op = QueryOp::kDistinct;
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kFailedPrecondition);
}

TEST(Query, InvalidSpecsRejected) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 10);
  QuerySpec backwards{.t1 = 100, .t2 = 50, .op = QueryOp::kCount};
  EXPECT_EQ(RunQuery(stream, backwards).status().code(), StatusCode::kInvalidArgument);
  QuerySpec bad_conf{.t1 = 1, .t2 = 10, .op = QueryOp::kCount, .confidence = 1.5};
  EXPECT_EQ(RunQuery(stream, bad_conf).status().code(), StatusCode::kInvalidArgument);
}

TEST(Query, EmptyRangeOutsideDataIsZero) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 100);
  QuerySpec spec{.t1 = 5000, .t2 = 6000, .op = QueryOp::kCount};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 0.0);
}

TEST(Query, RawThresholdGivesExactRecentAnswers) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(/*raw_threshold=*/64), &kv);
  FillRegular(stream, 1000);
  // The newest windows are raw; a recent small query is answered exactly.
  QuerySpec spec{.t1 = 995, .t2 = 1000, .op = QueryOp::kCount};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 6.0);
  EXPECT_TRUE(result->exact);
}

// Skewed fill for the top-k tests: value v appears ~proportional to its
// weight, with value 1.0 dominating.
void FillSkewed(Stream& stream, int n = 4000) {
  Rng rng(17);
  for (int t = 1; t <= n; ++t) {
    uint64_t r = rng.NextBounded(100);
    double v;
    if (r < 40) {
      v = 1.0;
    } else if (r < 65) {
      v = 2.0;
    } else if (r < 80) {
      v = 3.0;
    } else {
      v = static_cast<double>(4 + r % 16);
    }
    ASSERT_TRUE(stream.Append(t, v).ok());
  }
}

TEST(Query, TopKRanksDominantValueFirst) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillSkewed(stream);
  QuerySpec spec{.t1 = 1, .t2 = 4000, .op = QueryOp::kTopK, .top_k = 3};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->topk.size(), 3u);
  EXPECT_DOUBLE_EQ(result->topk[0].value, 1.0);
  EXPECT_DOUBLE_EQ(result->topk[1].value, 2.0);
  EXPECT_DOUBLE_EQ(result->topk[2].value, 3.0);
  // Headline estimate mirrors the first entry.
  EXPECT_DOUBLE_EQ(result->estimate, result->topk[0].estimate);
}

TEST(Query, TopKBracketContainsTruthFullRange) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  std::map<double, int> truth;
  Rng rng(17);
  for (int t = 1; t <= 4000; ++t) {
    uint64_t r = rng.NextBounded(100);
    double v = r < 40 ? 1.0 : (r < 65 ? 2.0 : (r < 80 ? 3.0 : 4.0 + r % 16));
    ++truth[v];
    ASSERT_TRUE(stream.Append(t, v).ok());
  }
  QuerySpec spec{.t1 = 1, .t2 = 4000, .op = QueryOp::kTopK, .top_k = 5};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->topk.size(), 5u);
  for (const auto& entry : result->topk) {
    double actual = truth[entry.value];
    EXPECT_LE(entry.ci_lo, actual) << "value " << entry.value;
    EXPECT_GE(entry.ci_hi, actual) << "value " << entry.value;
    EXPECT_LE(entry.ci_lo, entry.estimate);
    EXPECT_GE(entry.ci_hi, entry.estimate);
  }
}

TEST(Query, TopKPartialRangeIsInexactButSound) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  std::map<double, int> range_truth;
  Rng rng(17);
  constexpr int kT1 = 500;
  constexpr int kT2 = 1500;
  for (int t = 1; t <= 4000; ++t) {
    double v = rng.NextBounded(100) < 50 ? 1.0 : 2.0;
    if (t >= kT1 && t <= kT2) {
      ++range_truth[v];
    }
    ASSERT_TRUE(stream.Append(t, v).ok());
  }
  QuerySpec spec{.t1 = kT1, .t2 = kT2, .op = QueryOp::kTopK, .top_k = 2};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->exact);
  ASSERT_GE(result->topk.size(), 1u);
  for (const auto& entry : result->topk) {
    double actual = range_truth[entry.value];
    // Partial windows contribute whole-window upper bounds and shed their
    // possible out-of-range mass from the lower bound; truth stays inside.
    EXPECT_LE(entry.ci_lo, actual) << "value " << entry.value;
    EXPECT_GE(entry.ci_hi, actual) << "value " << entry.value;
  }
}

TEST(Query, TopKWithoutOperatorFailsPrecondition) {
  MemoryBackend kv;
  StreamConfig config = FullConfig();
  config.operators.spacesaving = false;
  Stream stream(1, config, &kv);
  FillRegular(stream);
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kTopK};
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kFailedPrecondition);
}

TEST(Query, TopKZeroKRejected) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(), &kv);
  FillRegular(stream, 10);
  QuerySpec spec{.t1 = 1, .t2 = 10, .op = QueryOp::kTopK, .top_k = 0};
  EXPECT_EQ(RunQuery(stream, spec).status().code(), StatusCode::kInvalidArgument);
}

TEST(Query, TopKOnRawWindowsIsExact) {
  MemoryBackend kv;
  Stream stream(1, FullConfig(/*raw_threshold=*/64), &kv);
  for (int t = 990; t <= 1000; ++t) {
    ASSERT_TRUE(stream.Append(t, t <= 996 ? 5.0 : 6.0).ok());
  }
  QuerySpec spec{.t1 = 990, .t2 = 1000, .op = QueryOp::kTopK, .top_k = 2};
  auto result = RunQuery(stream, spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->topk.size(), 2u);
  EXPECT_DOUBLE_EQ(result->topk[0].value, 5.0);
  EXPECT_DOUBLE_EQ(result->topk[0].ci_lo, 7.0);
  EXPECT_DOUBLE_EQ(result->topk[0].ci_hi, 7.0);
  EXPECT_DOUBLE_EQ(result->topk[1].value, 6.0);
  EXPECT_DOUBLE_EQ(result->topk[1].ci_lo, 4.0);
}


// ------------------------------------------------------- answer fingerprints
//
// Every QueryOp and ReconstructSamples over a fixed grid of ranges on seeded
// streams, each answer hashed bit for bit. The pinned constants make any
// change to an answer visible: a refactor of the query path must reproduce
// them exactly, and a deliberate answer change must re-pin the entries it
// moves (the test prints the whole table of actual values on a mismatch).

// "between_raw_events" falls between two events of one raw window: the
// window overlaps the range although none of its events does, which makes a
// distinct answer an (inexact) HLL estimate of 0.
constexpr const char* kFingerprintRanges[] = {
    "full",     "inside_window", "straddle", "raw_tail",
    "landmark", "before",        "after",    "between_raw_events"};
constexpr int kNumFingerprintRanges = 8;
constexpr const char* kFingerprintStreams[] = {"powerlaw_poisson", "exponential_pareto",
                                               "powerlaw_poisson_quarantined"};
constexpr int kNumFingerprintStreams = 3;

// FNV-1a over the bytes of every observable field.
class Fingerprint {
 public:
  template <typename T>
  void Mix(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t AnswerFingerprint(const StatusOr<QueryResult>& answer) {
  Fingerprint f;
  f.Mix(static_cast<int>(answer.status().code()));
  if (!answer.ok()) {
    return f.value();
  }
  const QueryResult& r = *answer;
  f.Mix(r.estimate);
  f.Mix(r.ci_lo);
  f.Mix(r.ci_hi);
  f.Mix(r.exact);
  f.Mix(r.bool_answer);
  f.Mix(r.degraded);
  f.Mix(r.skipped_spans.size());
  for (const auto& [a, b] : r.skipped_spans) {
    f.Mix(a);
    f.Mix(b);
  }
  f.Mix(r.windows_read);
  f.Mix(r.landmark_events);
  f.Mix(r.topk.size());
  for (const TopKEntry& entry : r.topk) {
    f.Mix(entry.value);
    f.Mix(entry.estimate);
    f.Mix(entry.ci_lo);
    f.Mix(entry.ci_hi);
  }
  return f.value();
}

uint64_t SamplesFingerprint(const StatusOr<std::vector<Event>>& samples) {
  Fingerprint f;
  f.Mix(static_cast<int>(samples.status().code()));
  if (samples.ok()) {
    f.Mix(samples->size());
    for (const Event& event : *samples) {
      f.Mix(event.ts);
      f.Mix(event.value);
    }
  }
  return f.value();
}

std::string DescribeAnswer(const StatusOr<QueryResult>& answer) {
  if (!answer.ok()) {
    return answer.status().ToString();
  }
  char text[256];
  std::snprintf(text, sizeof(text),
                "estimate=%.17g ci=[%.17g, %.17g] exact=%d bool=%d degraded=%d spans=%zu "
                "windows=%zu landmark_events=%zu topk=%zu",
                answer->estimate, answer->ci_lo, answer->ci_hi, answer->exact,
                answer->bool_answer, answer->degraded, answer->skipped_spans.size(),
                answer->windows_read, answer->landmark_events, answer->topk.size());
  return text;
}

// A seeded stream with every operator, a landmark span in mid-history and a
// raw tail, plus the grid of ranges (kFingerprintRanges order) cut from its
// own window layout.
struct FingerprintStream {
  MemoryBackend kv;
  std::unique_ptr<Stream> stream;
  std::vector<std::pair<Timestamp, Timestamp>> ranges;
};

void BuildFingerprintStream(FingerprintStream& s, bool power_law, bool poisson,
                            bool quarantine_one_window) {
  StreamConfig config;
  config.decay = power_law ? std::shared_ptr<const DecayFunction>(
                                 std::make_shared<PowerLawDecay>(1, 1, 1, 1))
                           : std::make_shared<ExponentialDecay>(2.0, 1, 1);
  config.operators = OperatorSet::Full();
  config.operators.cms_width = 256;
  config.operators.hll_precision = 10;
  config.operators.hist_lo = -5.0;
  config.operators.hist_hi = 45.0;
  config.operators.quantile_k = 64;
  config.operators.reservoir_capacity = 32;
  config.operators.spacesaving_capacity = 16;
  config.arrival_model = poisson ? ArrivalModel::kPoisson : ArrivalModel::kGeneric;
  config.raw_threshold = 32;
  config.seed = 11;
  s.stream = std::make_unique<Stream>(1, config, &s.kv);
  Stream& stream = *s.stream;

  Rng rng(poisson ? 21 : 22);
  Timestamp t = 1000;
  for (int i = 0; i < 4000; ++i) {
    if (i == 1500) {
      ASSERT_TRUE(stream.BeginLandmark(t + 1).ok());
    }
    double gap = poisson ? rng.NextExponential(1.0 / 3.0) : rng.NextPareto(1.0, 1.5);
    t += 1 + static_cast<Timestamp>(gap);
    // Heavy-tailed small integers (-2 is the most frequent value).
    double value = std::floor(rng.NextPareto(1.0, 1.1)) - 3.0;
    ASSERT_TRUE(stream.Append(t, value).ok());
    if (i == 1539) {
      ASSERT_TRUE(stream.EndLandmark(t).ok());
    }
  }

  auto views = stream.WindowsOverlapping(stream.start_time(), stream.watermark());
  ASSERT_TRUE(views.ok());
  std::vector<const Stream::WindowView*> summarized;
  size_t tail = views->size();
  while (tail > 0 && (*views)[tail - 1].window->is_raw()) {
    --tail;
  }
  for (size_t i = 0; i < tail; ++i) {
    if (!(*views)[i].window->is_raw()) {
      summarized.push_back(&(*views)[i]);
    }
  }
  ASSERT_GE(summarized.size(), 4u);
  ASSERT_LT(tail, views->size());
  const Stream::WindowView& inside = *summarized[summarized.size() / 2];
  const Stream::WindowView& next = *summarized[summarized.size() / 2 + 1];
  Timestamp len = inside.cover_end - inside.cover_start;
  ASSERT_GE(len, 4);
  const Stream::WindowView& first_raw = (*views)[tail];
  const std::vector<Event>& raw = first_raw.window->raw();
  size_t gap_at = 0;
  while (gap_at + 1 < raw.size() && raw[gap_at + 1].ts - raw[gap_at].ts < 3) {
    ++gap_at;
  }
  ASSERT_LT(gap_at + 1, raw.size());
  auto landmarks = stream.LandmarksOverlapping(stream.start_time(), stream.watermark());
  ASSERT_EQ(landmarks.size(), 1u);

  s.ranges = {
      {stream.start_time(), stream.watermark()},
      {inside.cover_start + len / 4, inside.cover_start + len / 2},
      {inside.cover_start + len / 2, (next.cover_start + next.cover_end) / 2},
      {first_raw.cover_start, stream.watermark()},
      {landmarks[0]->ts_start, landmarks[0]->ts_end},
      {stream.start_time() - 100, stream.start_time() - 1},
      {stream.watermark() + 1, stream.watermark() + 100},
      {raw[gap_at].ts + 1, raw[gap_at + 1].ts - 1},
  };

  if (quarantine_one_window) {
    // Flip one byte of the "inside_window" window's persisted copy; the next
    // query that loads it quarantines it.
    uint64_t cs = inside.window->cs();
    ASSERT_TRUE(stream.EvictAllWindows().ok());
    auto stored = s.kv.Get(WindowKey(1, cs));
    ASSERT_TRUE(stored.ok());
    std::string bad = *stored;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
    ASSERT_TRUE(s.kv.Put(WindowKey(1, cs), bad).ok());
  }
}

struct FingerprintOp {
  const char* name;
  QuerySpec spec;
};

const std::vector<FingerprintOp>& FingerprintOps() {
  static const std::vector<FingerprintOp> ops = {
      {"count", {.op = QueryOp::kCount}},
      {"sum", {.op = QueryOp::kSum}},
      {"mean", {.op = QueryOp::kMean}},
      {"min", {.op = QueryOp::kMin}},
      {"max", {.op = QueryOp::kMax}},
      {"existence_present", {.op = QueryOp::kExistence, .value = 1.0}},
      {"existence_absent", {.op = QueryOp::kExistence, .value = 0.5}},
      {"frequency", {.op = QueryOp::kFrequency, .value = -2.0}},
      {"distinct", {.op = QueryOp::kDistinct}},
      {"p50", {.op = QueryOp::kQuantile, .quantile_q = 0.5}},
      {"p90", {.op = QueryOp::kQuantile, .quantile_q = 0.9}},
      {"value_range", {.op = QueryOp::kValueRangeCount, .value_lo = 0.0, .value_hi = 10.0}},
      {"topk", {.op = QueryOp::kTopK, .top_k = 5}},
  };
  return ops;
}
constexpr int kNumFingerprintOps = 13;

// Recorded from the engine before its per-op range walks were folded into
// one driver; rows follow FingerprintOps(), columns kFingerprintRanges. Only
// the min and max entries of inside_window and straddle on the two healthy
// streams were re-pinned since: with nothing witnessed in range, their far
// end became the partial windows' opposite extreme instead of the bound
// itself, and each new interval covers the true extremum.
constexpr uint64_t kPinnedAnswers[kNumFingerprintStreams][kNumFingerprintOps]
                                 [kNumFingerprintRanges] = {
    {
        // powerlaw_poisson
        // count
        {0x92e92110590caf25, 0x8f9cbeb159e70243, 0x44b5383015197377, 0x51a47d9c7c36cb7f,
         0xce731a29f09de272, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // sum
        {0x117199728ea63cd6, 0x1a953bb3c678bcb2, 0xc84abe6b1dd927f3, 0x2eeca8b286b3f6b6,
         0xba9b5832328f4c8a, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // mean
        {0x3668baf4cc92b069, 0x39d7fd4142154805, 0x751b1766a2272d03, 0xa9ae1503b608587c,
         0x8f8d762ff2043fa7, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // min
        {0xba4ab1bda18ded88, 0x1b337e222657c6fc, 0x5d5f3598395a02ea, 0x9a76e77f391ebc42,
         0x2d7ee877afdb060e, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // max
        {0xf7005fffe8e4a83d, 0xa0790d8243628a26, 0x13bb33978ac33205, 0xc2374c5d39ca2fa9,
         0xad5a933126cceb01, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // existence_present
        {0xe7da58ee6e71e4ee, 0xdc2d7990b8e7ddfc, 0x0fb013e2c68e93a9, 0x17ccc6aba58f9224,
         0xa29954bace887f33, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // existence_absent
        {0xa05683c29f225a48, 0xea4743e1d66448fd, 0x10eeed1d93ce335e, 0x8082b98436b32902,
         0x9293dc9edb187ed5, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // frequency
        {0x98a32c958d6316c7, 0xceddc3bfde4d1a00, 0xa9cc5fee779c7ee4, 0xd2f8d3d226672071,
         0xcfeb2dafa506cdc2, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // distinct
        {0x0f285dd6933606e3, 0x4fb5e21dfa66a572, 0x91d0a126f3069127, 0x4e155d8de5a5f623,
         0xe7e3d75c306c5f5a, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0x2788275fc2748866},
        // p50
        {0xb794fbad6aef01cc, 0xcc4871eeb6e19d79, 0x6ea949fdbc6b61c5, 0x97c1316f027fd086,
         0x74950aabbb95d351, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // p90
        {0x728661f545fe936b, 0x4ad919624ac78956, 0x907282240caff245, 0x6a50f6a138b2adcf,
         0x59c96129da9834a6, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // value_range
        {0x70d5bed7a7aade03, 0x6edc1ad510b10eb1, 0x5efb29fa2ee1f49d, 0x1d6664cf25957e35,
         0x5aa68089fbaee864, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // topk
        {0xb89594e90e3034b6, 0xff9f1103013cee40, 0x473c6f18fd9f9420, 0xe177c0b419e2e4a6,
         0xb4fdcb10fc42192a, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
    },
    {
        // exponential_pareto
        // count
        {0xae8b5f78140e6d2a, 0x78f78a01c2811337, 0xaa1a46a1f5bcf470, 0xb9184d515fdc2164,
         0xce731a29f09de272, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // sum
        {0x357070aae4030df2, 0x566d6fc3c198a3e1, 0x96c738067105fa95, 0xcfae40865184bdde,
         0x148ee0881857f8a6, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // mean
        {0x68bbaa7f3132fae5, 0x8b1e1c59ffdafa92, 0xe50182608f2cd642, 0x282e46d52cbe8d01,
         0x1f4f2cecf7f30e7a, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // min
        {0xe331673436ae7147, 0x2434f3c14beca082, 0xe60b72a223bd24c2, 0x497a6f195fdfa416,
         0x2d7ee877afdb060e, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // max
        {0x756f343d8e6f45b7, 0xe9c9a8d3aa2d3826, 0xd355a4f29be40ba5, 0x3a25d45a1aca17d6,
         0x26cf0773972233c4, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // existence_present
        {0xeacf6e877d160461, 0xd921d7fd49d6a3d1, 0x8bee9cb5ec27fc32, 0x91930467e10126f0,
         0xa29954bace887f33, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // existence_absent
        {0x75689b5a7f4dad87, 0xea4743e1d66448fd, 0x10eeed1d93ce335e, 0xdbb1a33fa87ee056,
         0x9293dc9edb187ed5, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // frequency
        {0x3d0253f6129e96f0, 0x50159a9ed44744cf, 0x86f2e86babdeb7db, 0x5b59193685ed8ed7,
         0x18dc3bac5ed605f6, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // distinct
        {0xfb143eda2e77aa20, 0xd5fdd6f2c8299f4b, 0x65319b7bc4a19b6a, 0x5e4b82c0284c0e19,
         0x7c870e4b70f26466, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0x2788275fc2748866},
        // p50
        {0x5769c9675fcb0203, 0x9550f33979d54c26, 0x6ea949fdbc6b61c5, 0xb9f01b080c49e972,
         0x2d7ee877afdb060e, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // p90
        {0xc0d8f52e6605fd5c, 0xbbcb763c5c152e32, 0x9523cd009eab43d1, 0xf86491f6cbff3f29,
         0x342c5b589f41a41e, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // value_range
        {0x2c3781184461e587, 0x8776323cdba5de51, 0x4126ef8683df938d, 0x77eb501df275db65,
         0xb4187b2d93448368, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // topk
        {0x30b301d393107531, 0xaf0045e9c7e0c830, 0xf7903f1a811fe3bc, 0x3e22c7c94ea86adf,
         0x1620ea0280223ead, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
    },
    {
        // powerlaw_poisson_quarantined
        // count
        {0x28f542dc8ef2e90c, 0x962d2283ab4870c7, 0x494868422d7d265b, 0x51a47d9c7c36cb7f,
         0xce731a29f09de272, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // sum
        {0x46d51b00f6229678, 0xe840fec37b64b5a6, 0xa63ba7f6801b895c, 0x2eeca8b286b3f6b6,
         0xba9b5832328f4c8a, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // mean
        {0xaecc2f4613319a67, 0x6bbb0ec2dc8fa983, 0xa4d0123463b147f3, 0xa9ae1503b608587c,
         0x8f8d762ff2043fa7, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // min
        {0x72c3b254c0b0a312, 0xe3bf30f37fe85ed2, 0xed6b1f43e60a24a4, 0x9a76e77f391ebc42,
         0x2d7ee877afdb060e, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // max
        {0xa5f4b457c0663c3f, 0x6d22e3c464e1bb0f, 0x5a09f5f99af3d029, 0xc2374c5d39ca2fa9,
         0xad5a933126cceb01, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // existence_present
        {0x54cad82ffe30e3a3, 0xb15081bf8d2aebf0, 0xd628c961532abd22, 0x17ccc6aba58f9224,
         0xa29954bace887f33, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // existence_absent
        {0x117261f7b5f62971, 0xb15081bf8d2aebf0, 0xd3f032f08c0c28ea, 0x8082b98436b32902,
         0x9293dc9edb187ed5, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // frequency
        {0xca1beedacf65637b, 0x4f77b6ff8326fabf, 0x24f07d8f8e046eff, 0xd2f8d3d226672071,
         0xcfeb2dafa506cdc2, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // distinct
        {0x605a9101859f55cd, 0x4f77b6ff8326fabf, 0x10f09cc000b5517f, 0x4e155d8de5a5f623,
         0xe7e3d75c306c5f5a, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0x2788275fc2748866},
        // p50
        {0xbbafdce7b6e82571, 0x8d1ace904a398d17, 0xed6b1f43e60a24a4, 0x97c1316f027fd086,
         0x74950aabbb95d351, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // p90
        {0x49ff121ec2ecb4c6, 0x8d1ace904a398d17, 0x995c35f4be554f2f, 0x6a50f6a138b2adcf,
         0x59c96129da9834a6, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
        // value_range
        {0x3565234f5eecd0bf, 0x4f77b6ff8326fabf, 0xdb6d035a8a11fa3a, 0x1d6664cf25957e35,
         0x5aa68089fbaee864, 0xc39f9aa618fa5e9c, 0xc39f9aa618fa5e9c, 0xea4743e1d66448fd},
        // topk
        {0x27c8cead75322ed9, 0x4f77b6ff8326fabf, 0x036114b01b39e272, 0xe177c0b419e2e4a6,
         0xb4fdcb10fc42192a, 0x8d1ace904a398d17, 0x8d1ace904a398d17, 0x8d1ace904a398d17},
    },
};
// ReconstructSamples on the two healthy streams.
constexpr uint64_t kPinnedSamples[2][kNumFingerprintRanges] = {
    {0x6d73dc762d9f40b3, 0x87e58241589bef3d, 0xeaddded7d4371356, 0x3a57287c7fb3c771,
     0xc742dde78d13d6d4, 0x5467b0da1d106495, 0x5467b0da1d106495, 0x5467b0da1d106495},
    {0x20c4d70e0709e22c, 0x4e380f35b2389490, 0x8f8b81aa77e8a886, 0x1e4ba3e7ebf598b9,
     0x7e835aaeda7505d9, 0x5467b0da1d106495, 0x5467b0da1d106495, 0x5467b0da1d106495},
};

TEST(QueryFingerprint, AnswersMatchPinnedConstants) {
  FingerprintStream streams[kNumFingerprintStreams];
  BuildFingerprintStream(streams[0], /*power_law=*/true, /*poisson=*/true, false);
  BuildFingerprintStream(streams[1], /*power_law=*/false, /*poisson=*/false, false);
  BuildFingerprintStream(streams[2], /*power_law=*/true, /*poisson=*/true, true);
  ASSERT_FALSE(HasFatalFailure());

  uint64_t answers[kNumFingerprintStreams][kNumFingerprintOps][kNumFingerprintRanges];
  uint64_t samples[2][kNumFingerprintRanges];
  bool mismatch = false;
  for (int s = 0; s < kNumFingerprintStreams; ++s) {
    for (int o = 0; o < kNumFingerprintOps; ++o) {
      for (int r = 0; r < kNumFingerprintRanges; ++r) {
        QuerySpec spec = FingerprintOps()[o].spec;
        std::tie(spec.t1, spec.t2) = streams[s].ranges[r];
        StatusOr<QueryResult> answer = RunQuery(*streams[s].stream, spec);
        answers[s][o][r] = AnswerFingerprint(answer);
        if (answers[s][o][r] != kPinnedAnswers[s][o][r]) {
          mismatch = true;
          ADD_FAILURE() << "op " << FingerprintOps()[o].name << ", stream "
                        << kFingerprintStreams[s] << ", range " << kFingerprintRanges[r] << " ["
                        << spec.t1 << ", " << spec.t2 << "]: " << DescribeAnswer(answer);
        }
      }
    }
  }
  // Sample reconstruction over a quarantined window is pinned in
  // corruption_test instead.
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < kNumFingerprintRanges; ++r) {
      auto [t1, t2] = streams[s].ranges[r];
      samples[s][r] = SamplesFingerprint(ReconstructSamples(*streams[s].stream, t1, t2));
      if (samples[s][r] != kPinnedSamples[s][r]) {
        mismatch = true;
        ADD_FAILURE() << "ReconstructSamples, stream " << kFingerprintStreams[s] << ", range "
                      << kFingerprintRanges[r] << " [" << t1 << ", " << t2 << "]";
      }
    }
  }
  if (mismatch) {
    std::string table = "actual kPinnedAnswers:\n";
    char hex[32];
    for (auto& stream_answers : answers) {
      for (auto& row : stream_answers) {
        for (uint64_t h : row) {
          std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ULL, ", h);
          table += hex;
        }
        table += "\n";
      }
    }
    table += "actual kPinnedSamples:\n";
    for (auto& row : samples) {
      for (uint64_t h : row) {
        std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ULL, ", h);
        table += hex;
      }
      table += "\n";
    }
    std::fputs(table.c_str(), stdout);
  }
}

}  // namespace
}  // namespace ss
