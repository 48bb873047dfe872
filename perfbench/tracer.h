// In-memory span recorder for the traced run. Each span is a call from the
// benchmark into one layer (or a workload step that encloses such calls):
// name, start, end, parent span, and the batch, query or request id it
// served. Spans are buffered per thread and written out when the run ends;
// per-layer numbers come from their self times (duration minus the time
// covered by child spans). With tracing off, Span costs one branch.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/util.h"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into the same thread's buffer
    uint64_t id = 0;
  };
  struct Totals {
    uint64_t spans = 0;
    double self_ns = 0.0;
    std::vector<double> durations_ns;
  };

  static Tracer& Get();
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread, nested under its innermost open
  // span; returns its index (or -1 when tracing is off).
  int32_t Open(const char* name, uint64_t id);
  void Close(int32_t index);
  // Records a finished span whose interval the caller measured itself
  // (pipelined requests: from send to ack on the client thread).
  void Add(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns);

  // Per-name span count, summed self time and durations, over all threads.
  std::map<std::string, Totals> Summarize() const;
  // Writes every span as one CSV line: thread,index,parent,name,id,start,end.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Record> records;
    std::vector<int32_t> open;  // stack of open span indices
  };
  Buffer& Local();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(const char* name, uint64_t id = 0)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Open(name, id) : -1) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (index_ >= 0) {
      Tracer::Get().Close(index_);
      index_ = -1;
    }
  }

 private:
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
