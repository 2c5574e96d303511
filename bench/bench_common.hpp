// Shared plumbing for the figure benches.
//
// Every bench regenerates one table/figure of the paper's evaluation and
// prints it as an ASCII table (rows = methods, columns = groups/series).
// Default budgets keep the whole suite laptop-friendly; pass --paper-scale
// to restore the published hyper-parameters (OsdsConfig::paper()).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/harness.hpp"

namespace de::bench {

struct BenchOptions {
  bool paper_scale = false;
  int episodes = 500;       ///< OSDS episodes per case (fast mode)
  int n_images = 1000;      ///< images per IPS measurement
};

inline BenchOptions parse_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) options.paper_scale = true;
    if (std::strcmp(argv[i], "--episodes") == 0 && i + 1 < argc) {
      options.episodes = std::atoi(argv[i + 1]);
    }
  }
  return options;
}

inline experiments::HarnessOptions harness_options(const BenchOptions& options,
                                                   int n_devices = 4) {
  experiments::HarnessOptions harness;
  harness.n_images = options.n_images;
  if (options.paper_scale) {
    harness.distredge = core::DistrEdgeConfig::paper();
  } else {
    harness.distredge.osds.max_episodes = options.episodes;
  }
  if (n_devices >= 16) {
    harness.distredge.osds.sigma = 1.0;  // paper: sigma^2 = 1 at 16 providers
  }
  return harness;
}

/// Runs the standard 8-method lineup over `scenarios` and prints the table.
inline void run_figure(const std::string& title,
                       const std::vector<experiments::Scenario>& scenarios,
                       const BenchOptions& options) {
  const auto planners = baselines::figure_planner_names();
  const auto harness =
      harness_options(options, scenarios.front().num_devices());
  const auto results = experiments::run_matrix(planners, scenarios, harness);
  std::vector<std::string> names;
  names.reserve(scenarios.size());
  for (const auto& s : scenarios) names.push_back(s.name);
  experiments::ips_table(results, planners, names, title).print(std::cout);
  std::cout << std::endl;
}

/// The calling process's thread count (/proc/self/status "Threads:"), or
/// -1 where that file is unavailable.
inline int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = -1;
      status >> n;
      return n;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

/// Samples process_threads() every 2 ms on a background thread while it
/// lives; peak() is the largest count seen, not counting the sampler's own
/// thread (-1 where /proc is unavailable).
class ThreadPeakSampler {
 public:
  ThreadPeakSampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const int n = process_threads();
            if (n > 0) {
              peak_.store(std::max(peak_.load(std::memory_order_relaxed),
                                   n - 1),
                          std::memory_order_relaxed);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}
  ~ThreadPeakSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  ThreadPeakSampler(const ThreadPeakSampler&) = delete;
  ThreadPeakSampler& operator=(const ThreadPeakSampler&) = delete;

  int peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{-1};
  std::thread thread_;
};

}  // namespace de::bench
