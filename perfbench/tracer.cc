#include "perfbench/tracer.h"

#include <cstdio>

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->records.reserve(1 << 16);
    local = buffer.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

int32_t Tracer::Open(const char* name, uint64_t id) {
  Buffer& b = Local();
  Record r;
  r.name = name;
  r.id = id;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.start_ns = NowNs();
  b.records.push_back(r);
  int32_t index = static_cast<int32_t>(b.records.size() - 1);
  b.open.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  Buffer& b = Local();
  b.records[index].end_ns = NowNs();
  if (!b.open.empty() && b.open.back() == index) {
    b.open.pop_back();
  }
}

void Tracer::Add(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return;
  }
  Buffer& b = Local();
  b.records.push_back(Record{name, start_ns, end_ns, -1, id});
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> totals;
  for (const auto& buffer : buffers_) {
    const std::vector<Record>& recs = buffer->records;
    std::vector<double> child_ns(recs.size(), 0.0);
    for (const Record& r : recs) {
      if (r.parent >= 0) {
        child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    for (size_t i = 0; i < recs.size(); ++i) {
      double duration = static_cast<double>(recs[i].end_ns - recs[i].start_ns);
      Totals& t = totals[recs[i].name];
      ++t.spans;
      t.self_ns += duration - child_ns[i];
      t.durations_ns.push_back(duration);
    }
  }
  return totals;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,index,parent,name,id,start_ns,end_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Record>& recs = buffers_[t]->records;
    for (size_t i = 0; i < recs.size(); ++i) {
      std::fprintf(f, "%zu,%zu,%d,%s,%llu,%lld,%lld\n", t, i, recs[i].parent, recs[i].name,
                   static_cast<unsigned long long>(recs[i].id),
                   static_cast<long long>(recs[i].start_ns),
                   static_cast<long long>(recs[i].end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
