#include "src/core/query.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/core/estimator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sketch/aggregates.h"
#include "src/sketch/bloom.h"
#include "src/sketch/cms.h"
#include "src/sketch/counting_bloom.h"
#include "src/sketch/histogram.h"
#include "src/sketch/hyperloglog.h"
#include "src/sketch/quantile.h"
#include "src/sketch/spacesaving.h"

namespace ss {

namespace {

// Length of the intersection of half-open spans [s1, e1) and [s2, e2).
double SpanOverlap(double s1, double e1, double s2, double e2) {
  return std::max(0.0, std::min(e1, e2) - std::max(s1, s2));
}

Overlap ComputeOverlap(const Stream& stream, const Stream::WindowView& view, Timestamp t1,
                       Timestamp t2) {
  Overlap o;
  if (view.cover_end <= view.cover_start) {
    // Degenerate cover: several windows share a start timestamp (high-rate
    // streams with quantized clocks). All of this window's events sit at the
    // single instant cover_start; a query containing that instant gets the
    // whole window, any other query gets none of it.
    bool hit = t1 <= view.cover_start && view.cover_start <= t2;
    o.a = view.cover_start;
    o.b = hit ? view.cover_start + 1 : view.cover_start;
    o.frac = hit ? 1.0 : 0.0;
    o.full = true;
    return o;
  }
  o.a = std::max(t1, view.cover_start);
  o.b = std::min(t2 + 1, view.cover_end);
  double cover_len = static_cast<double>(view.cover_end - view.cover_start);
  double overlap_len = static_cast<double>(o.b - o.a);

  // Hollow out landmark spans (§4.3): both the window span and the query
  // overlap shrink by their intersection with landmark intervals.
  double lm_in_window = 0.0;
  double lm_in_overlap = 0.0;
  for (const LandmarkWindow* lm : stream.LandmarksOverlapping(view.cover_start,
                                                              view.cover_end - 1)) {
    double lm_start = static_cast<double>(lm->ts_start);
    double lm_end = static_cast<double>(lm->ts_end) + 1.0;
    lm_in_window += SpanOverlap(lm_start, lm_end, static_cast<double>(view.cover_start),
                                static_cast<double>(view.cover_end));
    lm_in_overlap += SpanOverlap(lm_start, lm_end, static_cast<double>(o.a),
                                 static_cast<double>(o.b));
  }
  double t_eff = std::max(0.0, overlap_len - lm_in_overlap);
  double big_t_eff = std::max(0.0, cover_len - lm_in_window);
  if (big_t_eff <= 0.0) {
    o.frac = 0.0;
    o.full = true;  // nothing summarized lives here
  } else {
    o.frac = std::clamp(t_eff / big_t_eff, 0.0, 1.0);
    o.full = o.frac >= 1.0;
  }
  return o;
}

// Adds one missing span to `d`. A fully covered span contributes all of its
// lost elements. A partial overlap keeps its proportional share for the point
// estimate, but the interval still brackets every possible placement
// ([0, count]) — even at frac == 0, where the elements merely *probably*
// aren't here.
void AddMissing(Degradation& d, const Overlap& o, uint64_t count) {
  d.any = true;
  d.spans.emplace_back(o.a, o.b - 1);
  d.total_count += count;
  if (o.full) {
    d.full_count += count;
  }
  d.expected += (o.full ? 1.0 : std::max(0.0, o.frac)) * static_cast<double>(count);
}

const CountSummary* GetCount(const SummaryWindow& window) {
  return SummaryCast<CountSummary>(window.Find(SummaryKind::kCount));
}

// Whole-window frequency of `value` from whichever frequency operator the
// stream maintains (CMS preferred, counting Bloom as fallback), plus the
// sketch's own noise variance: per-cell collision mass is ~Poisson with
// mean (total inserts)/(width), which the noise-corrected point estimate
// removes in expectation but not in variance.
struct FreqEstimate {
  double freq;
  double sketch_variance;
};

std::optional<FreqEstimate> WindowFrequency(const SummaryWindow& window, double value) {
  if (const auto* cms = SummaryCast<CountMinSketch>(window.Find(SummaryKind::kCountMin))) {
    double noise = static_cast<double>(cms->total_count()) / cms->width();
    return FreqEstimate{cms->EstimateCountCorrected(value), noise};
  }
  if (const auto* cbf =
          SummaryCast<CountingBloomFilter>(window.Find(SummaryKind::kCountingBloom))) {
    double noise = static_cast<double>(cbf->inserted_count()) * cbf->num_hashes() /
                   std::max(1u, cbf->num_counters());
    return FreqEstimate{static_cast<double>(cbf->EstimateCount(value)), noise};
  }
  return std::nullopt;
}

// Count, sum, frequency and value-range count: in-range events and fully
// covered windows add exactly; each partially covered window adds its
// sub-window posterior (Appendix B) to the estimated part.
class AdditiveFold final : public RangeFold {
 public:
  AdditiveFold(const Stream& stream, const QuerySpec& spec, QueryOp op)
      : stream_(stream), spec_(spec), op_(op) {}

  void Add(const Event& event) override {
    if (op_ == QueryOp::kSum) {
      exact_ += event.value;
    } else if (op_ == QueryOp::kCount ||
               (op_ == QueryOp::kFrequency && event.value == spec_.value) ||
               (op_ == QueryOp::kValueRangeCount && event.value >= spec_.value_lo &&
                event.value < spec_.value_hi)) {
      exact_ += 1.0;
    }
  }

  Status Merge(const SummaryWindow& window, const Overlap& o) override {
    const CountSummary* count = GetCount(window);
    const double window_count = count != nullptr ? static_cast<double>(count->count()) : 0.0;
    double whole;             // the window's answer when fully covered
    double sketch_std = 0.0;  // that answer's own sketch noise
    if (op_ == QueryOp::kFrequency) {
      std::optional<FreqEstimate> freq = WindowFrequency(window, spec_.value);
      if (!freq.has_value()) {
        return Status::FailedPrecondition(
            "stream has no frequency operator (CMS/counting Bloom)");
      }
      whole = freq->freq;
      sketch_std = std::sqrt(freq->sketch_variance);
    } else if (op_ == QueryOp::kValueRangeCount) {
      const auto* hist = SummaryCast<Histogram>(window.Find(SummaryKind::kHistogram));
      if (hist == nullptr) {
        return Status::FailedPrecondition("stream has no histogram operator");
      }
      // Whole-window selection count from the histogram (bucket
      // interpolation is the operator's inherent approximation), then the
      // usual time-proportional share with the count posterior's spread.
      whole = hist->EstimateRangeCount(spec_.value_lo, spec_.value_hi);
    } else {
      if (count == nullptr) {
        return Status::FailedPrecondition("stream has no count operator");
      }
      whole = window_count;
      if (op_ == QueryOp::kSum) {
        const auto* sum = SummaryCast<SumSummary>(window.Find(SummaryKind::kSum));
        if (sum == nullptr) {
          return Status::FailedPrecondition("stream has no sum operator");
        }
        whole = sum->sum();
      }
    }
    if (o.full) {
      exact_ += whole;
      sketch_std_ += sketch_std;
      return Status::Ok();
    }
    const ArrivalModel model = stream_.config().arrival_model;
    MeanVar est;
    if (op_ == QueryOp::kSum) {
      est = EstimateSubWindowSum(whole, window_count, o.frac, stream_.stats(), model);
    } else if (op_ == QueryOp::kFrequency) {
      MeanVar count_est = EstimateSubWindowCount(window_count, o.frac, stream_.stats(), model);
      est = EstimateSubWindowFrequency(window_count, whole, o.frac, count_est.variance);
    } else {
      est = EstimateSubWindowCount(whole, o.frac, stream_.stats(), model);
    }
    mean_ += est.mean;
    variance_ += est.variance;
    sketch_std_ += sketch_std * o.frac;
    ++partials_;
    if (op_ == QueryOp::kSum) {
      const auto* minmax = SummaryCast<MinMaxSummary>(window.Find(SummaryKind::kMinMax));
      if (minmax == nullptr || minmax->empty() || minmax->min() < 0) {
        sum_floor_ = false;
      }
    } else if (op_ == QueryOp::kCount) {
      binom_n_ = count->count() <= static_cast<uint64_t>(INT64_MAX)
                     ? static_cast<int64_t>(count->count())
                     : 0;
      binom_p_ = o.frac;
    }
    return Status::Ok();
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    QueryResult result;
    result.estimate = exact_ + mean_;
    double total_variance = variance_ + sketch_std_ * sketch_std_;
    result.exact = partials_ == 0 && total_variance == 0.0;
    if (result.exact) {
      result.ci_lo = result.ci_hi = result.estimate;
    } else {
      Interval interval;
      if (op_ == QueryOp::kCount && stream_.config().arrival_model == ArrivalModel::kPoisson &&
          partials_ == 1 && binom_n_ > 0) {
        // Binom(n, p) quantiles are already >= 0, so lo >= exact holds by
        // construction here.
        interval = BinomialInterval(exact_, binom_n_, binom_p_, spec_.confidence);
      } else {
        // When the estimated (partial-window) part is provably non-negative
        // — counts, frequencies, sums over windows whose minima are >= 0 —
        // the lower bound is floored at the exact part. Signed sums must not
        // be: clamping a genuinely negative lower bound would push lo above
        // the true value.
        interval = NormalInterval(exact_, mean_, total_variance, spec_.confidence,
                                  /*floor_at_zero=*/op_ != QueryOp::kSum || sum_floor_);
      }
      result.ci_lo = interval.lo;
      result.ci_hi = std::max(interval.lo, interval.hi);
    }
    if (!d.any) {
      return result;
    }
    if (op_ == QueryOp::kCount) {
      // The lost element *count* is exact from the window index: elements in
      // fully covered spans are certainly in range; the rest lie in [0, n].
      result.estimate += d.expected;
      result.ci_lo += static_cast<double>(d.full_count);
      result.ci_hi += static_cast<double>(d.total_count);
      if (d.full_count != d.total_count) {
        result.exact = false;
      }
    } else if (op_ == QueryOp::kSum) {
      // A lost element's value is only known to lie inside the stream's
      // observed extremes; without them no sound bound exists.
      auto bounds = stream_.value_bounds();
      if (!bounds.has_value()) {
        return Status::Corruption(
            "degraded sum: stream has no recorded value bounds to price the lost elements");
      }
      auto [vmin, vmax] = *bounds;
      uint64_t partial = d.total_count - d.full_count;
      double full = static_cast<double>(d.full_count);
      result.ci_lo += full * vmin + static_cast<double>(partial) * std::min(0.0, vmin);
      result.ci_hi += full * vmax + static_cast<double>(partial) * std::max(0.0, vmax);
      result.estimate += d.expected * stream_.stats().MeanValue();
      result.exact = false;
    } else {
      // Any subset of the lost elements could equal `value` (or fall inside
      // [value_lo, value_hi)): [0, n] more occurrences, none certain.
      result.ci_hi += static_cast<double>(d.total_count);
      result.exact = false;
    }
    return result;
  }

 private:
  const Stream& stream_;
  const QuerySpec& spec_;
  const QueryOp op_;
  double exact_ = 0.0;     // contributions with zero posterior variance
  double mean_ = 0.0;      // estimated (partial-window) mean
  double variance_ = 0.0;  // posterior variance of the estimated part
  // Correlated sketch noise: every window's CMS shares one hash family (a
  // union requirement, §3.1), so the same colliding values pollute value v
  // in every window. Per-window sketch errors therefore add linearly in
  // standard deviation, not in quadrature.
  double sketch_std_ = 0.0;
  int partials_ = 0;  // partially covered summarized windows
  // Binomial shortcut bookkeeping (single-partial Poisson count, Thm B.2).
  int64_t binom_n_ = 0;
  double binom_p_ = 0.0;
  // Sums keep the exact-part floor only while every partially covered
  // window is provably non-negative (its MinMax minimum >= 0).
  bool sum_floor_ = true;
};

// Mean: the count and sum folds ride the same walk.
class MeanFold final : public RangeFold {
 public:
  MeanFold(const Stream& stream, const QuerySpec& spec)
      : count_(stream, spec, QueryOp::kCount), sum_(stream, spec, QueryOp::kSum) {}

  void Add(const Event& event) override {
    count_.Add(event);
    sum_.Add(event);
  }

  Status Merge(const SummaryWindow& window, const Overlap& o) override {
    SS_RETURN_IF_ERROR(count_.Merge(window, o));
    return sum_.Merge(window, o);
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    SS_ASSIGN_OR_RETURN(QueryResult count, count_.Finish(d));
    SS_ASSIGN_OR_RETURN(QueryResult sum, sum_.Finish(d));
    if (count.estimate <= 0) {
      return Status::NotFound("no data in query range");
    }
    QueryResult result;
    result.exact = count.exact && sum.exact;
    result.estimate = sum.estimate / count.estimate;
    // First-order (delta-method) propagation of the two interval half-widths.
    double sum_hw = (sum.ci_hi - sum.ci_lo) / 2.0;
    double count_hw = (count.ci_hi - count.ci_lo) / 2.0;
    double rel = std::sqrt(std::pow(sum_hw / std::max(1e-12, std::abs(sum.estimate)), 2) +
                           std::pow(count_hw / count.estimate, 2));
    double hw = std::abs(result.estimate) * rel;
    result.ci_lo = result.estimate - hw;
    result.ci_hi = result.estimate + hw;
    return result;
  }

 private:
  AdditiveFold count_;
  AdditiveFold sum_;
};

// Min/max: `bound_` takes every window's extreme (conservative), `witness_`
// only values certainly inside the range (events, fully covered windows).
// Together they bracket the true range-restricted extremum.
class ExtremumFold final : public RangeFold {
 public:
  ExtremumFold(const Stream& stream, const QuerySpec& spec)
      : stream_(stream), is_min_(spec.op == QueryOp::kMin) {}

  void Add(const Event& event) override {
    Keep(bound_, event.value, is_min_);
    Keep(witness_, event.value, is_min_);
  }

  Status Merge(const SummaryWindow& window, const Overlap& o) override {
    const auto* minmax = SummaryCast<MinMaxSummary>(window.Find(SummaryKind::kMinMax));
    if (minmax == nullptr) {
      return Status::FailedPrecondition("stream has no minmax operator");
    }
    if (minmax->empty()) {
      return Status::Ok();
    }
    // Partial windows cannot localize the extremum; include the whole
    // window's bound (conservative) and mark the answer inexact. Their
    // in-range events still lie inside [min, max], so the opposite extreme
    // bounds the truth from the far side.
    Keep(bound_, is_min_ ? minmax->min() : minmax->max(), is_min_);
    if (o.full) {
      Keep(witness_, is_min_ ? minmax->min() : minmax->max(), is_min_);
    } else {
      Keep(opposite_, is_min_ ? minmax->max() : minmax->min(), !is_min_);
    }
    return Status::Ok();
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    QueryResult result;
    result.exact = !opposite_.has_value();  // no partially covered window
    std::optional<std::pair<double, double>> bounds;
    if (d.any) {
      // A lost element might have been the extremum: the stream-wide value
      // bound joins the bracket, and the answer can no longer be exact.
      bounds = stream_.value_bounds();
      if (!bounds.has_value()) {
        return Status::Corruption(
            "degraded min/max: stream has no recorded value bounds to price the lost elements");
      }
      Keep(bound_, is_min_ ? bounds->first : bounds->second, is_min_);
      result.exact = false;
    }
    if (!bound_.has_value()) {
      return Status::NotFound("no data in query range");
    }
    result.estimate = *bound_;
    // The interval is [bound, far] for min (mirrored for max). The witness is
    // the far end whenever there is one; the partial windows' opposite
    // extreme is no bound then, since the witness may lie beyond it. With
    // nothing witnessed, every in-range element sits in a partial window or
    // in a lost span, and lost elements can sit anywhere within the stream
    // bounds.
    double far = *bound_;
    if (!result.exact) {
      if (witness_.has_value()) {
        far = *witness_;
      } else if (d.any) {
        far = is_min_ ? bounds->second : bounds->first;
      } else {
        far = opposite_.value_or(*bound_);
      }
    }
    result.ci_lo = is_min_ ? *bound_ : far;
    result.ci_hi = is_min_ ? far : *bound_;
    return result;
  }

 private:
  // Keeps the smaller (or the larger) of `slot` and `v`.
  static void Keep(std::optional<double>& slot, double v, bool smaller) {
    slot = slot.has_value() ? (smaller ? std::min(*slot, v) : std::max(*slot, v)) : v;
  }

  const Stream& stream_;
  const bool is_min_;
  std::optional<double> bound_;
  std::optional<double> witness_;
  std::optional<double> opposite_;  // partial windows' far extreme
};

// Existence: combines per-window presence probabilities p = 1 − Π(1 − p_i).
// The CI brackets the unknown whole-window occurrence count V between 1 and
// the window count C (Bloom alone cannot localize, §7.2.2); a frequency
// operator, when configured, pins the estimate.
class ExistenceFold final : public RangeFold {
 public:
  explicit ExistenceFold(const QuerySpec& spec) : value_(spec.value) {}

  void Add(const Event& event) override { certain_hit_ = certain_hit_ || event.value == value_; }

  Status Merge(const SummaryWindow& window, const Overlap& o) override {
    const auto* bloom = SummaryCast<BloomFilter>(window.Find(SummaryKind::kBloom));
    const auto* cbf =
        SummaryCast<CountingBloomFilter>(window.Find(SummaryKind::kCountingBloom));
    bool might_contain;
    double fp_rate;
    if (bloom != nullptr) {
      might_contain = bloom->MightContain(value_);
      fp_rate = bloom->FalsePositiveRate();
    } else if (cbf != nullptr) {
      might_contain = cbf->MightContain(value_);
      fp_rate = 0.01;  // CBF sizing default; refined below by frequency
    } else {
      return Status::FailedPrecondition("stream has no membership operator (Bloom)");
    }
    if (!might_contain) {
      return Status::Ok();  // Bloom "false" is certain (§5.2)
    }
    const CountSummary* count = GetCount(window);
    double window_count = count != nullptr ? static_cast<double>(count->count()) : 1.0;
    // The frequency operator, when configured, pins the occurrence count; a
    // noise-corrected estimate of ~0 means the Bloom hit was almost surely a
    // false positive. Without one, bracket V in [1, C] (§7.2.2). When the
    // filter itself is trustworthy (low fill), its positive already implies
    // at least one occurrence, overriding a CMS under-correction.
    std::optional<FreqEstimate> freq = WindowFrequency(window, value_);
    double v_hat = freq.has_value() ? freq->freq : std::max(1.0, window_count / 2.0);
    if (freq.has_value() && fp_rate < 0.1) {
      v_hat = std::max(v_hat, 1.0);
    }
    const double occurrences[3] = {v_hat, 1.0, std::max(1.0, window_count)};
    for (int i = 0; i < 3; ++i) {
      double p = (1.0 - fp_rate) * MembershipProbability(o.frac, occurrences[i]);
      log_not_present_[i] += std::log1p(-std::min(p, 1.0 - 1e-12));
    }
    any_estimate_ = true;
    return Status::Ok();
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    QueryResult result;
    if (certain_hit_) {
      // A witnessed occurrence stays certain no matter what was lost.
      result.estimate = 1.0;
      result.bool_answer = true;
      result.ci_lo = result.ci_hi = 1.0;
      return result;
    }
    result.exact = !any_estimate_;
    result.estimate = 1.0 - std::exp(log_not_present_[0]);
    result.ci_lo = 1.0 - std::exp(log_not_present_[1]);
    result.ci_hi = 1.0 - std::exp(log_not_present_[2]);
    result.bool_answer = result.estimate >= 0.5;
    if (d.any) {
      // A lost element might have carried `value`: presence can no longer be
      // ruled out, so the interval's upper end opens to 1.
      result.ci_hi = 1.0;
      result.exact = false;
    }
    return result;
  }

 private:
  const double value_;
  // Σ log(1 − p_i) with V = v̂ (estimate), V = 1 (lower bracket) and V = C
  // (upper bracket).
  double log_not_present_[3] = {0.0, 0.0, 0.0};
  bool certain_hit_ = false;
  bool any_estimate_ = false;
};

// Distinct: one merged HyperLogLog over in-range events and whole windows.
class DistinctFold final : public RangeFold {
 public:
  DistinctFold(const Stream& stream, const QuerySpec& spec)
      : precision_(stream.config().operators.hll_precision), confidence_(spec.confidence) {}

  // The merged sketch exists once any raw window overlaps the range, so such
  // an answer is an HLL estimate even when none of its events is in range.
  void RawWindow() override { Ensure(precision_); }

  void Add(const Event& event) override {
    Ensure(precision_);
    merged_->AddHash(HashValue(event.value));
  }

  Status Merge(const SummaryWindow& window, const Overlap&) override {
    const auto* hll = SummaryCast<HyperLogLog>(window.Find(SummaryKind::kHyperLogLog));
    if (hll == nullptr) {
      return Status::FailedPrecondition("stream has no hyperloglog operator");
    }
    // Summaries cannot restrict to a sub-window; partial windows contribute
    // their full distinct set (upper-biased).
    Ensure(hll->precision());
    return merged_->MergeFrom(*hll);
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    QueryResult result;
    if (merged_ == nullptr) {
      if (d.any) {
        // Only lost data overlaps the range: up to n distinct values possible.
        result.ci_hi = static_cast<double>(d.total_count);
        result.exact = false;
      }
      return result;
    }
    result.estimate = merged_->EstimateCardinality();
    // HLL standard error 1.04/sqrt(m); always an approximation.
    result.exact = false;
    double m = std::ldexp(1.0, static_cast<int>(merged_->precision()));
    double rel = 1.04 / std::sqrt(m);
    NormalDist dist(result.estimate, result.estimate * rel);
    double alpha = (1.0 - confidence_) / 2.0;
    result.ci_lo = std::max(0.0, dist.Quantile(alpha));
    result.ci_hi = dist.Quantile(1.0 - alpha);
    if (d.any) {
      // Every lost element could have carried a previously unseen value.
      result.ci_hi += static_cast<double>(d.total_count);
    }
    return result;
  }

 private:
  void Ensure(uint32_t precision) {
    if (merged_ == nullptr) {
      merged_ = std::make_unique<HyperLogLog>(precision);
    }
  }

  const uint32_t precision_;
  const double confidence_;
  std::unique_ptr<HyperLogLog> merged_;
};

// Quantile: one merged KLL sketch; the rank error (and, under degradation,
// the lost elements' possible ranks) set the interval.
class QuantileFold final : public RangeFold {
 public:
  QuantileFold(const Stream& stream, const QuerySpec& spec) : stream_(stream), spec_(spec) {}

  void Add(const Event& event) override {
    Ensure();
    merged_->Update(event.ts, event.value);
  }

  Status Merge(const SummaryWindow& window, const Overlap&) override {
    const auto* sketch = SummaryCast<QuantileSketch>(window.Find(SummaryKind::kQuantile));
    if (sketch == nullptr) {
      return Status::FailedPrecondition("stream has no quantile operator");
    }
    Ensure();
    return merged_->MergeFrom(*sketch);
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    if (merged_ == nullptr || merged_->total_count() == 0) {
      return Status::NotFound("no data in query range");
    }
    QueryResult result;
    result.exact = false;
    double q = std::clamp(spec_.quantile_q, 0.0, 1.0);
    result.estimate = merged_->EstimateQuantile(q);
    double rank_err = 2.0 / static_cast<double>(stream_.config().operators.quantile_k);
    if (!d.any) {
      result.ci_lo = merged_->EstimateQuantile(std::max(0.0, q - rank_err));
      result.ci_hi = merged_->EstimateQuantile(std::min(1.0, q + rank_err));
      return result;
    }
    // Up to n lost elements may belong to the range. The true q-quantile of
    // the full population (T observed + up to M lost) sits at rank q·(T+M);
    // among the observed values that rank shifts by at most M in either
    // direction, depending on where the lost values fall. When the widened
    // rank leaves [0, 1], the quantile escapes the observed sample entirely
    // and only the stream-wide value bounds contain it.
    double total = static_cast<double>(merged_->total_count());
    double m_lost = static_cast<double>(d.total_count);
    double q_hi = (q * (total + m_lost)) / total + rank_err;
    double q_lo = (q * (total + m_lost) - m_lost) / total - rank_err;
    auto bounds = stream_.value_bounds();
    if ((q_lo < 0.0 || q_hi > 1.0) && !bounds.has_value()) {
      return Status::Corruption(
          "degraded quantile: stream has no recorded value bounds to price the lost elements");
    }
    result.ci_lo = q_lo < 0.0 ? bounds->first : merged_->EstimateQuantile(q_lo);
    result.ci_hi = q_hi > 1.0 ? bounds->second : merged_->EstimateQuantile(q_hi);
    result.estimate = std::clamp(result.estimate, result.ci_lo, result.ci_hi);
    return result;
  }

 private:
  void Ensure() {
    if (merged_ == nullptr) {
      merged_ = std::make_unique<QuantileSketch>(stream_.config().operators.quantile_k,
                                                 stream_.config().seed ^ 0x9e3779b9);
    }
  }

  const Stream& stream_;
  const QuerySpec& spec_;
  std::unique_ptr<QuantileSketch> merged_;
};

// Top-k: merged space-saving candidates with per-candidate brackets.
class TopKFold final : public RangeFold {
 public:
  TopKFold(const Stream& stream, const QuerySpec& spec)
      : ops_(stream.config().operators), top_k_(spec.top_k), cms_ok_(ops_.cms) {}

  void Add(const Event& event) override {
    Ensure();
    merged_->Add(event.value);
    if (cms_ != nullptr) {
      cms_->Update(event.ts, event.value);
    }
  }

  Status Merge(const SummaryWindow& window, const Overlap& o) override {
    const auto* sketch = SummaryCast<SpaceSavingSketch>(window.Find(SummaryKind::kSpaceSaving));
    if (sketch == nullptr) {
      return Status::FailedPrecondition("stream has no spacesaving operator");
    }
    Ensure();
    SS_RETURN_IF_ERROR(merged_->MergeFrom(*sketch));
    if (cms_ != nullptr) {
      const auto* wcms = SummaryCast<CountMinSketch>(window.Find(SummaryKind::kCountMin));
      if (wcms != nullptr) {
        SS_RETURN_IF_ERROR(cms_->MergeFrom(*wcms));
      } else {
        cms_.reset();  // mixed configuration: drop the tightener entirely
        cms_ok_ = false;
      }
    }
    if (!o.full) {
      partial_sketches_.push_back(sketch);
    }
    return Status::Ok();
  }

  StatusOr<QueryResult> Finish(const Degradation& d) override {
    QueryResult result;
    result.exact = partial_sketches_.empty();
    if (merged_ == nullptr || merged_->total_count() == 0) {
      if (d.any) {
        // Only lost data overlaps the range: no candidate is known, but the
        // lost elements could hide up to n occurrences of anything.
        result.exact = false;
        result.ci_hi = static_cast<double>(d.total_count);
        return result;
      }
      return Status::NotFound("no data in query range");
    }
    for (const SpaceSavingSketch::Candidate& cand : merged_->TopK(top_k_)) {
      TopKEntry entry;
      entry.value = cand.value;
      double hi = static_cast<double>(cand.count);
      double lo = static_cast<double>(cand.count - cand.error);
      if (cms_ != nullptr) {
        hi = std::min(hi, static_cast<double>(cms_->EstimateCount(cand.value)));
      }
      // Shed the partial windows' possible out-of-range contribution from the
      // lower bound: within each such window the candidate occurred at most
      // Bracket(v).count times, all of which might lie outside the range.
      for (const SpaceSavingSketch* partial : partial_sketches_) {
        lo -= static_cast<double>(partial->Bracket(cand.value).count);
      }
      lo = std::clamp(lo, 0.0, hi);
      entry.estimate =
          cms_ != nullptr ? std::clamp(cms_->EstimateCountCorrected(cand.value), lo, hi) : hi;
      entry.ci_lo = lo;
      // Any subset of the lost elements could also equal this value.
      entry.ci_hi = hi + (d.any ? static_cast<double>(d.total_count) : 0.0);
      if (cand.error != 0) {
        result.exact = false;
      }
      result.topk.push_back(entry);
    }
    if (d.any) {
      result.exact = false;
    }
    if (!result.topk.empty()) {
      // Headline answer: the strongest heavy hitter's frequency bracket.
      result.estimate = result.topk.front().estimate;
      result.ci_lo = result.topk.front().ci_lo;
      result.ci_hi = result.topk.front().ci_hi;
    }
    return result;
  }

 private:
  void Ensure() {
    if (merged_ == nullptr) {
      merged_ = std::make_unique<SpaceSavingSketch>(ops_.spacesaving_capacity);
    }
    if (cms_ok_ && cms_ == nullptr) {
      cms_ = std::make_unique<CountMinSketch>(ops_.cms_width, ops_.cms_depth);
    }
  }

  const OperatorSet& ops_;
  const uint32_t top_k_;
  std::unique_ptr<SpaceSavingSketch> merged_;
  // Optional bracket tightener: the merged CMS min-estimate is an independent
  // upper bound on any value's occurrence count, and its noise-corrected
  // estimate a better point answer than the space-saving count.
  std::unique_ptr<CountMinSketch> cms_;
  bool cms_ok_;
  // Partially covered windows contribute their whole-window candidates (the
  // summary cannot restrict to a sub-window). Their counts stay in the upper
  // bound, but each candidate's lower bound must shed everything those
  // windows might have contributed outside the query range.
  std::vector<const SpaceSavingSketch*> partial_sketches_;
};

std::unique_ptr<RangeFold> MakeFold(const Stream& stream, const QuerySpec& spec) {
  switch (spec.op) {
    case QueryOp::kCount:
    case QueryOp::kSum:
    case QueryOp::kFrequency:
    case QueryOp::kValueRangeCount:
      return std::make_unique<AdditiveFold>(stream, spec, spec.op);
    case QueryOp::kMean:
      return std::make_unique<MeanFold>(stream, spec);
    case QueryOp::kMin:
    case QueryOp::kMax:
      return std::make_unique<ExtremumFold>(stream, spec);
    case QueryOp::kExistence:
      return std::make_unique<ExistenceFold>(spec);
    case QueryOp::kDistinct:
      return std::make_unique<DistinctFold>(stream, spec);
    case QueryOp::kQuantile:
      return std::make_unique<QuantileFold>(stream, spec);
    case QueryOp::kTopK:
      return std::make_unique<TopKFold>(stream, spec);
  }
  return nullptr;
}

}  // namespace

StatusOr<QueryResult> ScanRange(Stream& stream, const QuerySpec& spec, RangeFold& fold,
                                QueryTrace* trace) {
  SS_ASSIGN_OR_RETURN(std::vector<Stream::WindowView> views,
                      stream.WindowsOverlapping(spec.t1, spec.t2, trace));
  QueryPhaseSpan merge_span(QueryPhase::kSketchMerge, trace);
  std::vector<std::pair<Overlap, uint64_t>> missing;
  for (const Stream::WindowView& view : views) {
    Overlap o = ComputeOverlap(stream, view, spec.t1, spec.t2);
    if (o.b <= o.a) {
      continue;
    }
    // A quarantined view (null window) is missing whole; a surviving window
    // may carry a scrub-recorded remnant of lost elements.
    uint64_t lost = view.window != nullptr ? view.window->lost_count() : view.missing_count;
    if (lost > 0) {
      missing.emplace_back(o, lost);
    }
    if (view.window == nullptr) {
      continue;
    }
    const SummaryWindow& window = *view.window;
    if (!window.is_raw()) {
      SS_RETURN_IF_ERROR(fold.Merge(window, o));
      continue;
    }
    fold.RawWindow();
    for (const Event& event : window.raw()) {
      // Raw events are exact: filter by the query bounds themselves (an
      // event may share its timestamp with the next window's cover start,
      // which the half-open cover span would wrongly exclude).
      if (event.ts >= spec.t1 && event.ts <= spec.t2) {
        fold.Add(event);
      }
    }
  }
  std::vector<Event> landmark_events = stream.QueryLandmarks(spec.t1, spec.t2);
  for (const Event& event : landmark_events) {
    fold.Add(event);
  }
  merge_span.End();

  QueryPhaseSpan degrade_span(QueryPhase::kDegrade, trace);
  Degradation d;
  for (const auto& [o, lost] : missing) {
    AddMissing(d, o, lost);
  }
  degrade_span.End();

  QueryPhaseSpan ci_span(QueryPhase::kCiCombine, trace);
  SS_ASSIGN_OR_RETURN(QueryResult result, fold.Finish(d));
  result.confidence = spec.confidence;
  result.windows_read = views.size();
  result.landmark_events = landmark_events.size();
  result.degraded = d.any;
  result.skipped_spans = std::move(d.spans);
  return result;
}

const char* QueryOpName(QueryOp op) {
  static constexpr const char* kNames[] = {"count",    "sum",      "mean",      "min",
                                           "max",      "existence", "frequency", "distinct",
                                           "quantile", "value_range_count", "topk"};
  static_assert(std::size(kNames) == static_cast<size_t>(QueryOp::kTopK) + 1);
  size_t i = static_cast<size_t>(op);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

StatusOr<QueryResult> RunQuery(Stream& stream, const QuerySpec& spec) {
  static Counter& degraded_total =
      MetricRegistry::Default().GetCounter("ss_core_query_degraded_total");
  std::shared_ptr<QueryTrace> trace;
  if (spec.collect_trace) {
    trace = std::make_shared<QueryTrace>();
    trace->op = QueryOpName(spec.op);
    trace->t1 = spec.t1;
    trace->t2 = spec.t2;
  }
  QueryPhaseSpan plan_span(QueryPhase::kPlan, trace.get());
  if (spec.t2 < spec.t1) {
    return Status::InvalidArgument("query range end precedes start");
  }
  if (spec.confidence <= 0.0 || spec.confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0,1)");
  }
  // Landmarks are lossless by contract; answering around a corrupt one
  // would silently drop raw data every op weaves in exactly. Hard error.
  if (!stream.landmark_status().ok()) {
    return Status::Corruption("landmark window corrupt: " +
                              stream.landmark_status().ToString());
  }
  if (spec.op == QueryOp::kValueRangeCount && !(spec.value_hi > spec.value_lo)) {
    return Status::InvalidArgument("value range [value_lo, value_hi) is empty");
  }
  if (spec.op == QueryOp::kTopK && spec.top_k == 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  std::unique_ptr<RangeFold> fold = MakeFold(stream, spec);
  if (fold == nullptr) {
    return Status::InvalidArgument("unknown query operator");
  }
  plan_span.End();
  Stopwatch watch;
  StatusOr<QueryResult> result = ScanRange(stream, spec, *fold, trace.get());
  if (!result.ok()) {
    return result;
  }
  if (result->degraded) {
    degraded_total.Inc();
    FlightRecorder::Default().Record(FlightEventType::kDegradedQuery,
                                     static_cast<uint64_t>(spec.op),
                                     result->skipped_spans.size());
  }
  if (trace == nullptr) {
    return result;
  }
  trace->elapsed_micros = watch.ElapsedMicros();
  trace->landmark_windows = stream.LandmarksOverlapping(spec.t1, spec.t2).size();
  trace->landmark_events = result->landmark_events;
  trace->degraded = result->degraded;
  trace->skipped_spans = result->skipped_spans.size();
  trace->estimate = result->estimate;
  trace->ci_lo = result->ci_lo;
  trace->ci_hi = result->ci_hi;
  trace->ci_width = result->CiWidth();
  trace->exact = result->exact;
  result->trace = std::move(trace);
  return result;
}

}  // namespace ss
