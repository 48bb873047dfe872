#include "perfbench/inputs.h"

#include <cmath>

#include "perfbench/util.h"

namespace perfbench {
namespace {

constexpr double kMeanGap = 10.0;  // mean interarrival, in timestamp units

std::vector<ss::Event> Generate(const StreamPlan& plan, uint64_t seed) {
  const uint64_t n = plan.history + plan.live;
  std::vector<ss::Event> events;
  events.reserve(n);
  SplitMix rng(seed);
  constexpr double kAlpha = 2.2;  // Pareto shape: finite variance
  const double x_m = kMeanGap * (kAlpha - 1.0) / kAlpha;
  double t = 1000.0;
  for (uint64_t i = 0; i < n; ++i) {
    switch (plan.arrival) {
      case Arrival::kPoisson:
        t += -std::log(rng.Uniform()) * kMeanGap;
        break;
      case Arrival::kPareto:
        t += x_m / std::pow(rng.Uniform(), 1.0 / kAlpha);
        break;
    }
    // Uniform over a finite set, as the §7.2 microbenchmark streams.
    double value = static_cast<double>(rng.Below(plan.universe));
    // Timestamps strictly increase: equal timestamps that straddle a window
    // boundary lose events from exact answers (README, "Known faults").
    ss::Timestamp ts = static_cast<ss::Timestamp>(t);
    if (!events.empty() && ts <= events.back().ts) {
      ts = events.back().ts + 1;
    }
    events.push_back(ss::Event{ts, value});
  }
  return events;
}

}  // namespace

ss::StreamConfig MakeConfig(const StreamPlan& plan) {
  ss::StreamConfig config;
  if (plan.decay == Decay::kPowerLaw) {
    config.decay = std::make_shared<ss::PowerLawDecay>(1, 1, 1, 1);
  } else {
    config.decay = std::make_shared<ss::ExponentialDecay>(2.0, 1, 1);
  }
  switch (plan.ops) {
    case Ops::kMicro:
      config.operators = ss::OperatorSet::Microbench();
      break;
    case Ops::kFull:
      config.operators = ss::OperatorSet::Full();
      config.operators.hist_lo = 0.0;
      config.operators.hist_hi = plan.universe;
      break;
  }
  config.arrival_model =
      plan.arrival == Arrival::kPoisson ? ss::ArrivalModel::kPoisson : ss::ArrivalModel::kGeneric;
  config.window_cache_bytes = plan.window_cache_bytes;
  return config;
}

StreamInput::StreamInput(ss::StreamId stream_id, const StreamPlan& stream_plan, uint64_t seed)
    : id(stream_id),
      plan(stream_plan),
      events(Generate(stream_plan, seed)),
      oracle(&events, stream_plan.universe) {}

}  // namespace perfbench
