// perfbench: end-to-end benchmark of hedgeq.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-file <file>] [--workers <n>]
//   perfbench --self-test --work-dir <dir>
//
// Prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Diagnostics go to stderr.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload large_doc|small_doc|cold_churn|"
               "schema_static --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-file FILE] [--workers N]\n"
               "       perfbench --self-test --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--workers") {
      options.workers = std::strtoul(value.c_str(), nullptr, 10);
    } else if (arg == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) return Usage();
  std::filesystem::create_directories(options.work_dir);
  if (self_test) return perfbench::RunSelfTest() == 0 ? 0 : 1;

  perfbench::Outcome outcome;
  if (options.workload == "large_doc") {
    outcome = perfbench::RunLargeDoc(options);
  } else if (options.workload == "small_doc") {
    outcome = perfbench::RunSmallDoc(options);
  } else if (options.workload == "cold_churn") {
    outcome = perfbench::RunColdChurn(options);
  } else if (options.workload == "schema_static") {
    outcome = perfbench::RunSchemaStatic(options);
  } else {
    return Usage();
  }
  for (const std::string& problem : outcome.problems) {
    std::cerr << "check failed: " << problem << "\n";
  }
  std::cout << outcome.Json() << std::endl;
  return 0;
}
