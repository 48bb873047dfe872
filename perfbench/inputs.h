// Seeded inputs: stream make-up (decay family, operator set, arrival
// process, value universe) and the events each stream receives. The program
// sees only these events; the oracle keeps its own copy.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/oracle.h"
#include "src/core/stream.h"

namespace perfbench {

enum class Decay { kPowerLaw, kExponential };
// kMicro: count, sum, min/max, Bloom, CMS (the §7.2.2 set).
// kFull: every operator, so every QueryOp is answerable.
enum class Ops { kMicro, kFull };
enum class Arrival { kPoisson, kPareto };

struct StreamPlan {
  Decay decay = Decay::kPowerLaw;
  Ops ops = Ops::kMicro;
  Arrival arrival = Arrival::kPoisson;
  uint32_t universe = 256;  // values are uniform integers in [0, universe)
  uint64_t history = 0;     // events preloaded during set-up
  uint64_t live = 0;        // events appended during the measured phase
  uint64_t window_cache_bytes = 0;
};

ss::StreamConfig MakeConfig(const StreamPlan& plan);

// One stream's inputs and its oracle. `appended` counts the events handed
// to the store so far (history first, then live in order).
struct StreamInput {
  StreamInput(ss::StreamId id, const StreamPlan& plan, uint64_t seed);
  StreamInput(const StreamInput&) = delete;
  StreamInput& operator=(const StreamInput&) = delete;

  ss::StreamId id;
  StreamPlan plan;
  std::vector<ss::Event> events;
  Oracle oracle;
  size_t appended = 0;

  // Marks the next `n` events as appended (visible to the oracle).
  void Advance(size_t n) {
    appended += n;
    oracle.SetVisible(appended);
  }
};

using Inputs = std::vector<std::unique_ptr<StreamInput>>;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
