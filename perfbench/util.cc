#include "perfbench/util.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/net/protocol.h"
#include "src/obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

uint64_t ReadKeyed(const char* path, const std::string& key, uint64_t scale) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      uint64_t v = 0;
      fields >> v;
      return v * scale;
    }
  }
  return 0;
}

// Every instrument the per-layer report reads. Snapshotting a fixed list
// (rather than whatever happens to be registered) makes a delta well defined
// even for instruments the program registers only after the snapshot.
const std::vector<std::pair<std::string, std::string>>& Counters() {
  static const auto* list = [] {
    auto* l = new std::vector<std::pair<std::string, std::string>>{
        {"ss_core_append_total", ""},
        {"ss_core_window_merges_total", ""},
        {"ss_core_window_load_bytes_total", ""},
        {"ss_core_window_cache_hits_total", ""},
        {"ss_core_window_cache_misses_total", ""},
        {"ss_core_query_aggregate_total", ""},
        {"ss_storage_memtable_flush_total", ""},
        {"ss_storage_compaction_total", ""},
        {"ss_storage_wal_bytes_total", ""},
        {"ss_storage_wal_fsync_total", ""},
        {"ss_storage_dir_fsync_total", ""},
        {"ss_storage_block_cache_hits_total", ""},
        {"ss_storage_block_cache_misses_total", ""},
        {"ss_storage_block_read_bytes_total", ""},
        {"ss_net_bytes_read_total", ""},
        {"ss_net_bytes_written_total", ""},
    };
    for (uint8_t op = 0; op <= static_cast<uint8_t>(ss::net::Opcode::kMaxOpcode); ++op) {
      l->emplace_back("ss_net_requests_total",
                      std::string("op=\"") + ss::net::OpcodeName(static_cast<ss::net::Opcode>(op)) +
                          "\"");
    }
    return l;
  }();
  return *list;
}

const std::vector<std::pair<std::string, std::string>>& Histograms() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"ss_core_flush_batch_records", ""},
      {"ss_core_query_phase_us", "phase=\"plan\""},
      {"ss_core_query_phase_us", "phase=\"window_scan\""},
      {"ss_core_query_phase_us", "phase=\"sketch_merge\""},
      {"ss_core_query_phase_us", "phase=\"ci_combine\""},
      {"ss_core_query_phase_us", "phase=\"degrade\""},
      {"ss_core_stream_lock_wait_us", "op=\"append\""},
      {"ss_core_stream_lock_wait_us", "op=\"query\""},
      {"ss_storage_memtable_flush_us", ""},
      {"ss_storage_compaction_us", ""},
      {"ss_storage_write_phase_us", "phase=\"wal_append\""},
      {"ss_storage_write_phase_us", "phase=\"memtable_apply\""},
      {"ss_net_request_us", "op=\"append_batch\""},
      {"ss_net_request_us", "op=\"query\""},
      {"ss_net_ack_flush_us", ""},
      {"ss_net_ack_batch_requests", ""},
  };
  return list;
}

std::string Key(const std::string& name, const std::string& label) {
  return label.empty() ? name : name + "{" + label + "}";
}

}  // namespace

Rss ReadRss() {
  return Rss{ReadKeyed("/proc/self/status", "VmRSS:", 1024),
             ReadKeyed("/proc/self/status", "VmHWM:", 1024)};
}

uint64_t ReadWriteChars() { return ReadKeyed("/proc/self/io", "wchar:", 1); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

void RegistryDelta::Start() {
  ss::MetricRegistry& registry = ss::MetricRegistry::Default();
  for (const auto& [name, label] : Counters()) {
    counters_[Key(name, label)] = registry.GetCounter(name, label).value();
  }
  for (const auto& [name, label] : Histograms()) {
    ss::LatencyHistogram& h = registry.GetHistogram(name, label);
    hists_[Key(name, label)] = Hist{h.count(), h.sum()};
  }
}

void RegistryDelta::Stop() {
  ss::MetricRegistry& registry = ss::MetricRegistry::Default();
  for (const auto& [name, label] : Counters()) {
    end_counters_[Key(name, label)] = registry.GetCounter(name, label).value();
  }
  for (const auto& [name, label] : Histograms()) {
    ss::LatencyHistogram& h = registry.GetHistogram(name, label);
    end_hists_[Key(name, label)] = Hist{h.count(), h.sum()};
  }
  stopped_ = true;
}

uint64_t RegistryDelta::Counter(const std::string& name, const std::string& label) const {
  const std::string key = Key(name, label);
  auto it = counters_.find(key);
  uint64_t base = it == counters_.end() ? 0 : it->second;
  auto end = end_counters_.find(key);
  uint64_t now = stopped_ && end != end_counters_.end()
                     ? end->second
                     : ss::MetricRegistry::Default().GetCounter(name, label).value();
  return now - base;
}

RegistryDelta::Hist RegistryDelta::Histogram(const std::string& name,
                                             const std::string& label) const {
  const std::string key = Key(name, label);
  auto it = hists_.find(key);
  Hist base = it == hists_.end() ? Hist{} : it->second;
  auto end = end_hists_.find(key);
  Hist now;
  if (stopped_ && end != end_hists_.end()) {
    now = end->second;
  } else {
    ss::LatencyHistogram& h = ss::MetricRegistry::Default().GetHistogram(name, label);
    now = Hist{h.count(), h.sum()};
  }
  return Hist{now.count - base.count, now.sum - base.sum};
}

}  // namespace perfbench
