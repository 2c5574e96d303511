// Shared machinery of the distbench harness: seeded tenant inputs with their
// single-device references, a served fleet (fabric + providers +
// StreamServer), the closed- and open-loop clients that time every image
// from outside the library, and bench-side process counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cnn/model.hpp"
#include "common/rng.hpp"
#include "obs/admin.hpp"
#include "rpc/shaped_transport.hpp"
#include "runtime/fabric.hpp"
#include "serve/stream_server.hpp"
#include "sim/exec_sim.hpp"

namespace distbench {

using namespace de;
using Clock = std::chrono::steady_clock;

/// Devices in every fleet (nproc = 4 on the reference host).
inline constexpr int kDevices = 4;

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Metrics in print order, each with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit);
};

/// One served model: weights and a pool of distinct seeded inputs, each
/// with its run_reference output (computed here, before any timing).
struct Tenant {
  cnn::CnnModel model;
  std::vector<cnn::ConvWeights> weights;
  std::vector<cnn::Tensor> inputs;
  std::vector<cnn::Tensor> refs;
};

Tenant make_tenant(cnn::CnnModel model, int n_inputs, Rng& rng);

struct FleetSpec {
  bool use_tcp = false;
  const rpc::ShapingSpec* shaping = nullptr;  ///< not owned; may be null
  int telemetry_every = 0;
  int max_streams = 16;
  obs::AdminServer* admin = nullptr;  ///< not owned; may be null
  /// Conv tiles on the process-wide pool; otherwise each device computes
  /// its rows on its own provider thread.
  bool tile_pool = true;
};

/// A provider fleet behind one StreamServer. Closes the server and joins
/// the providers on destruction.
class Fleet {
 public:
  Fleet(const FleetSpec& spec, std::span<const Tenant* const> tenants,
        std::span<const sim::RawStrategy> strategies);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  serve::StreamServer& server() { return *server_; }
  runtime::DataPlaneStats& stats() { return stats_; }
  runtime::ClusterFabric& fabric() { return fabric_; }
  /// When the fabric was built (the shaped links' trace-time origin).
  Clock::time_point built_at() const { return built_at_; }

 private:
  Clock::time_point built_at_;
  runtime::ClusterFabric fabric_;
  runtime::DataPlaneStats stats_;
  std::vector<runtime::TenantModel> fleet_models_;
  std::vector<serve::TenantSpec> specs_;
  runtime::Supervisor providers_;
  std::unique_ptr<serve::StreamServer> server_;
};

/// One client stream the load drives.
struct StreamLoad {
  int id = -1;
  const Tenant* tenant = nullptr;
  int window = 4;
};

/// What a load phase observed, all timed from outside the library.
struct PhaseStats {
  std::int64_t submitted = 0;
  std::int64_t failed = 0;     ///< refused, lost or not bit-exact
  std::int64_t refused = 0;    ///< submit() returned false (in `failed`)
  std::int64_t delivered = 0;  ///< bit-exact outputs, drained ones too
  std::int64_t delivered_in_window = 0;
  double window_s = 0;
  std::vector<double> latency_ms;       ///< per image, see each loop
  std::vector<double> submit_block_ms;  ///< time inside submit()
  std::vector<double> pop_wait_ms;      ///< time inside pop()
  std::vector<double> gen_lag_ms;       ///< open loop: submit start - due
  /// Closed loop: the last delivery within the window, since it opened.
  double last_delivery_s = 0;

  /// Images delivered bit-exact within the window, per second from the
  /// window's opening to its last delivery (to the window's end when no
  /// delivery time was kept), so the value keeps every digit.
  double ips() const;
  /// Folds another phase's counts and samples into this one.
  void add(const PhaseStats& other);
};

/// Closed loop: every stream keeps `window` images in flight; a client
/// thread submits the next image of a stream as soon as it pops one.
/// Latency is submit() start to pop() return. Images delivered within
/// `seconds` count; the rest are drained and checked but not timed.
/// `midpoint` (may be empty) runs once, halfway through.
PhaseStats closed_loop(serve::StreamServer& server,
                       std::span<const StreamLoad> loads, double seconds,
                       int threads, std::uint64_t seed,
                       const std::function<void()>& midpoint = {});

/// Open loop: one generator thread submits Poisson arrivals at aggregate
/// `rate` per second over `seconds`, each to a seeded random stream; one
/// consumer thread per stream pops, so no stream waits behind another.
/// Latency runs from the due time to pop() return, so generator stalls
/// count against the system.
PhaseStats open_loop(serve::StreamServer& server,
                     std::span<const StreamLoad> loads, double rate,
                     double seconds, std::uint64_t seed,
                     const std::function<void()>& midpoint = {});

/// Sends `count` images through each stream in turn, closed loop with the
/// stream's window (warm-up); returns failures.
std::int64_t warm_up(serve::StreamServer& server,
                     std::span<const StreamLoad> loads, int count);

/// Bench-side process counters (getrusage + /proc/self/status).
struct ProcSample {
  double cpu_s = 0;              ///< user + sys, all threads
  std::int64_t ctx_switches = 0; ///< voluntary + involuntary
};
ProcSample proc_sample();
double peak_rss_mb();  ///< VmHWM
/// Starts a new VmHWM peak at the current RSS (/proc/self/clear_refs);
/// where the kernel refuses, the peak keeps counting from process start.
void reset_peak_rss();

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it and the
/// part the hypervisor gave to other guests (steal).
struct HostCpu {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};
HostCpu host_cpu();
/// Steal's share of host CPU time between two readings.
double steal_share(const HostCpu& before, const HostCpu& after);

/// Samples the process thread count every 20 ms until destroyed.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int peak() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace distbench
