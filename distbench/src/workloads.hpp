// The benchmark's workloads. Each one is set up several times (the median
// set-up is `setup_s`), then timed untraced for the end-to-end metrics;
// with tracing on, a second, traced copy of its closed-loop phase and the
// layer probes give the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace distbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::vector<std::string> workload_names();

/// Runs one workload and fills `report`. Throws on an unknown name.
void run_workload(const Args& args, Report& report);

}  // namespace distbench
