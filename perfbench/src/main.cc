// perfbench: end-to-end and per-layer benchmark of the H2Cloud stack.
//
//   perfbench --workload <hot-read|heavy-tree|ingest> --seed <n>
//             --seconds <s> --trace <0|1> [--ops <n>] [--spans-out <file>]
//
// Prints a log (lines starting with '#') and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}.  With --trace 0 the metrics are end to end; with --trace 1
// (run perfbench_traced) they are per layer.  Each client runs the
// workload's op budget, sized from --seconds; --ops sets it instead, runs
// one set-up and prints exact "# guard" counters (guard_test.py compares
// them across runs).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hot-read|heavy-tree|ingest> --seed <n> --seconds <s> "
               "--trace <0|1> [--ops <n>] [--spans-out <f>]\n",
               why);
  return 2;
}

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--ops") == 0) {
      opts.fixed_ops = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--spans-out") == 0) {
      opts.spans_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (opts.seconds <= 0) return Usage("--seconds must be positive");
  if (opts.trace && !AllocCountingAvailable()) {
    return Usage("--trace 1 needs the perfbench_traced binary");
  }
  std::unique_ptr<Workload> workload;
  if (opts.workload == "hot-read") {
    workload = MakeHotRead(opts);
  } else if (opts.workload == "heavy-tree") {
    workload = MakeHeavyTree(opts);
  } else if (opts.workload == "ingest") {
    workload = MakeIngest(opts);
  } else {
    return Usage("unknown workload");
  }
  const RunResult result = RunBenchmark(*workload, opts);
  std::fflush(stdout);
  PrintJson(result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
