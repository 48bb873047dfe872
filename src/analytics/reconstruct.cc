#include "src/analytics/reconstruct.h"

#include <algorithm>

#include "src/core/query.h"
#include "src/sketch/reservoir.h"

namespace ss {

namespace {

// Raw and landmark events are kept as they are; a summarized window adds the
// reservoir samples that fall inside [t1, t2].
class SampleFold final : public RangeFold {
 public:
  SampleFold(Timestamp t1, Timestamp t2) : t1_(t1), t2_(t2) {}

  void Add(const Event& event) override { samples_.push_back(event); }

  Status Merge(const SummaryWindow& window, const Overlap&) override {
    const auto* reservoir = SummaryCast<ReservoirSample>(window.Find(SummaryKind::kReservoir));
    if (reservoir == nullptr) {
      return Status::FailedPrecondition("stream has no reservoir (sampled) operator");
    }
    for (const auto& item : reservoir->items()) {
      if (item.ts >= t1_ && item.ts <= t2_) {
        samples_.push_back(Event{item.ts, item.value});
      }
    }
    return Status::Ok();
  }

  StatusOr<QueryResult> Finish(const Degradation&) override {
    std::sort(samples_.begin(), samples_.end(),
              [](const Event& a, const Event& b) { return a.ts < b.ts; });
    return QueryResult{};
  }

  std::vector<Event> TakeSamples() { return std::move(samples_); }

 private:
  const Timestamp t1_;
  const Timestamp t2_;
  std::vector<Event> samples_;
};

}  // namespace

StatusOr<std::vector<Event>> ReconstructSamples(Stream& stream, Timestamp t1, Timestamp t2) {
  SampleFold fold(t1, t2);
  SS_RETURN_IF_ERROR(ScanRange(stream, QuerySpec{.t1 = t1, .t2 = t2}, fold).status());
  return fold.TakeSamples();
}

}  // namespace ss
