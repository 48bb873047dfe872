// perfbench: end-to-end and per-layer benchmark of SummaryStore.
//
//   perfbench --workload ingest|cold_query|wire --seed N --seconds S
//             --trace 0|1 --store-dir DIR [--out-dir DIR]
//
// The amount of work is fixed by --seconds (rounds per second of budget),
// never by the clock, so counts and sizes repeat exactly. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|cold_query|wire --seed N --seconds S "
               "--trace 0|1 --store-dir DIR [--out-dir DIR]\n");
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = perfbench::NowNs();
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--store-dir") {
      opt.store_dir = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.store_dir.empty() || opt.seconds < 1) {
    return Usage();
  }

  perfbench::Run run(opt);
  run.process_start_ns = process_start;
  if (opt.workload == "ingest") {
    perfbench::RunIngest(run);
  } else if (opt.workload == "cold_query") {
    perfbench::RunColdQuery(run);
  } else if (opt.workload == "wire") {
    perfbench::RunWire(run);
  } else {
    return Usage();
  }
  run.checker.Finish();
  std::printf("timing: generate_s=%.3f setup_s=%.3f measured_s=%.3f total_s=%.3f\n",
              run.generate_s, run.setup_s,
              (run.measured_end_ns - run.measured_start_ns) / 1e9,
              (perfbench::NowNs() - process_start) / 1e9);

  perfbench::Report& report = run.report;
  for (const std::string& e : report.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.10g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
