// distbench: one workload of the DistrEdge serving benchmark per run.
//
//   distbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints every metric it measured as a table (name, value, unit), then, as
// the last line, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
// Every delivered image is compared bit for bit with run_reference on its
// input; any mismatch, loss or refusal makes the run fail (exit 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using distbench::Args;
using distbench::Report;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const auto& name : distbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      usage(argv[0]);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) usage(argv[0]);
  return args;
}

void print(const Args& args, const Report& report) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& m : report.metrics) {
    std::printf("  %-34s %16.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  images attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (std::size_t k = 0; k < report.metrics.size(); ++k) {
    const auto& m = report.metrics[k];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report report;
  try {
    distbench::run_workload(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "distbench: %s\n", e.what());
    return 2;
  }
  print(args, report);
  return report.failed == 0 ? 0 : 1;
}
