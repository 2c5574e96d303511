#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cnn/exec_engine.hpp"
#include "cnn/layer_volume.hpp"
#include "cnn/model_zoo.hpp"
#include "core/distredge.hpp"
#include "core/strategy.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "experiments/scenarios.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "sim/stream_sim.hpp"

namespace distbench {

namespace {

constexpr int kWindow = 4;  ///< images in flight per stream

/// What one set-up produced.
struct Scene {
  std::vector<sim::RawStrategy> strategies;  ///< served, one per tenant
  std::unique_ptr<ctrl::Controller> controller;  ///< outlives the fleet
  std::unique_ptr<Fleet> fleet;
  std::vector<StreamLoad> loads;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Plans, when the workload plans, then builds the fleet and its streams.
  virtual std::unique_ptr<Scene> build(obs::AdminServer* admin) = 0;
  /// The closed-loop phase, timed untraced for the end-to-end metrics and
  /// once more traced for the per-image split.
  virtual PhaseStats closed_phase(Scene& scene, double seconds,
                                  std::uint64_t seed) = 0;
  /// Untraced phases after the closed loop; folds them into `total`.
  virtual void extra_phases(Scene&, double /*seconds*/,
                            std::uint64_t /*seed*/, PhaseStats& /*total*/,
                            Report&) {}
  /// core, sim and ctrl metrics; zero where the workload does not plan,
  /// simulate or replan.
  virtual void layer_metrics(const std::vector<sim::RawStrategy>& strategies,
                             double /*ips*/, Report& report) {
    report.set("core.plan_s", 0, "s");
    report.set("core.volumes",
               static_cast<double>(strategies.front().volumes.size()),
               "count");
    report.set("sim.execute_us", 0, "us");
    report.set("sim.predicted_ips", 0, "1/s");
    report.set("sim.measured_over_predicted", 0, "ratio");
    report.set("ctrl.swaps", 0, "count");
    report.set("ctrl.detect_ms", 0, "ms");
    report.set("ctrl.replan_us", 0, "us");
    report.set("ctrl.predicted_gain", 0, "ratio");
  }
  /// Share of --seconds the closed-loop phase runs.
  virtual double closed_share() const { return 1.0; }
  /// Warm-up images per stream, part of set-up.
  virtual int warm_images() const = 0;
  /// Fleets set up per run. Each serves an equal share of the closed-loop
  /// window; `ips` is the median over fleets, so one fleet whose threads
  /// landed badly on the host moves it less.
  virtual int fleets() const { return 3; }
  /// Set-ups per run, `setup_s` being their median: one per fleet, plus
  /// set-ups that are torn down unserved where one is short.
  virtual int setups() const { return fleets(); }

  std::vector<Tenant> tenants;
};

std::unique_ptr<Fleet> make_fleet(const FleetSpec& spec,
                                  const std::vector<Tenant>& tenants,
                                  const std::vector<sim::RawStrategy>& s) {
  std::vector<const Tenant*> ptrs;
  for (const auto& t : tenants) ptrs.push_back(&t);
  return std::make_unique<Fleet>(spec, ptrs, s);
}

/// Opens one stream per entry of `tenant_of` (a tenant index each).
std::vector<StreamLoad> open_streams(Fleet& fleet,
                                     const std::vector<Tenant>& tenants,
                                     const std::vector<int>& tenant_of) {
  std::vector<StreamLoad> loads;
  for (const int t : tenant_of) {
    const int id = fleet.server().open_stream(t, kWindow);
    if (id < 0) throw std::runtime_error("stream refused at set-up");
    loads.push_back({id, &tenants[static_cast<std::size_t>(t)], kWindow});
  }
  return loads;
}

/// Per-layer volumes with staggered cuts: even volumes cut at j*h/n, odd
/// ones at the midpoints, so every volume boundary moves most rows to
/// another device.
sim::RawStrategy staggered_strategy(const cnn::CnnModel& m, int n) {
  sim::RawStrategy strategy;
  std::vector<int> boundaries;
  for (int l = 0; l <= m.num_layers(); ++l) boundaries.push_back(l);
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (std::size_t v = 0; v < strategy.volumes.size(); ++v) {
    const int h = cnn::volume_out_height(m, strategy.volumes[v]);
    std::vector<int> cuts{0};
    for (int j = 1; j < n; ++j) {
      const int at = v % 2 == 0 ? j * h / n
                                : std::min(h, ((2 * j - 1) * h + n) / (2 * n));
      cuts.push_back(std::clamp(at, cuts.back(), h));
    }
    cuts.push_back(h);
    strategy.cuts.push_back(std::move(cuts));
  }
  return strategy;
}

sim::RawStrategy proportional_strategy(const cnn::CnnModel& m,
                                       const std::vector<int>& boundaries,
                                       const std::vector<double>& weights) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::proportional_split(cnn::volume_out_height(m, v), weights).cuts);
  }
  return strategy;
}

// ---------------------------------------------------------------------------

class EdgeStream final : public Workload {
 public:
  /// Every node's link, the rate of the paper's 100 Mbps edge network.
  /// Unshaped loopback runs at memory speed, and its rate then follows how
  /// much CPU the shared host gives: the per-layer exchange crosses every
  /// device, so a pause of any one CPU stalls the image. At this rate an
  /// image spends most of its time on the wire, and host pauses add a small
  /// share to it.
  static constexpr Mbps kLinkMbps = 100;

  explicit EdgeStream(Rng& rng)
      : shaping_(rpc::ShapingSpec::uniform(kDevices + 1, kLinkMbps)) {
    tenants.push_back(make_tenant(cnn::edgenet(), 16, rng));
  }

  std::unique_ptr<Scene> build(obs::AdminServer* admin) override {
    auto scene = std::make_unique<Scene>();
    scene->strategies = {staggered_strategy(tenants[0].model, kDevices)};
    FleetSpec spec;
    spec.use_tcp = true;
    spec.shaping = &shaping_;
    // Each device computes on its own thread, like a single-core edge
    // device. The pool's per-tile wake-ups tripled the context switches
    // per image and made CPU per image follow the host's load.
    spec.tile_pool = false;
    spec.admin = admin;
    scene->fleet = make_fleet(spec, tenants, scene->strategies);
    scene->loads = open_streams(*scene->fleet, tenants, {0});
    return scene;
  }

  PhaseStats closed_phase(Scene& scene, double seconds,
                          std::uint64_t seed) override {
    return closed_loop(scene.fleet->server(), scene.loads, seconds, 1, seed);
  }

  int warm_images() const override { return 16; }
  int fleets() const override { return 6; }

 private:
  rpc::ShapingSpec shaping_;
};

// ---------------------------------------------------------------------------

class PlannedResnet50 final : public Workload {
 public:
  explicit PlannedResnet50(Rng& rng) {
    tenants.push_back(make_tenant(cnn::resnet50(), 2, rng));
  }

  std::unique_ptr<Scene> build(obs::AdminServer* admin) override {
    auto scenario = experiments::group_DB(100);
    scenario.model_name = "resnet50";
    built_ = std::make_unique<experiments::BuiltScenario>(
        experiments::build(scenario));
    core::DistrEdgePlanner planner(core::DistrEdgeConfig::fast());
    const auto t0 = Clock::now();
    const auto strategy = planner.plan(built_->context());
    plan_s_.push_back(seconds_since(t0));

    auto scene = std::make_unique<Scene>();
    scene->strategies = {strategy.to_raw(tenants[0].model)};
    FleetSpec spec;
    spec.admin = admin;
    scene->fleet = make_fleet(spec, tenants, scene->strategies);
    scene->loads = open_streams(*scene->fleet, tenants, {0});
    return scene;
  }

  PhaseStats closed_phase(Scene& scene, double seconds,
                          std::uint64_t seed) override {
    return closed_loop(scene.fleet->server(), scene.loads, seconds, 1, seed);
  }

  int warm_images() const override { return 8; }

  void layer_metrics(const std::vector<sim::RawStrategy>& strategies,
                     double ips, Report& report) override {
    Workload::layer_metrics(strategies, ips, report);
    const auto& strategy = strategies.front();
    report.set("core.plan_s", median(plan_s_), "s");
    report.set("sim.execute_us",
               probe_sim_execute_us(built_->model, strategy, built_->latency,
                                    built_->network, 201),
               "us");
    sim::StreamOptions options;
    options.n_images = 50;
    const double predicted = sim::stream_images(built_->model, strategy,
                                                built_->latency,
                                                built_->network, options)
                                 .ips;
    report.set("sim.predicted_ips", predicted, "1/s");
    report.set("sim.measured_over_predicted",
               predicted > 0 ? ips / predicted : 0, "ratio");
  }

 private:
  std::unique_ptr<experiments::BuiltScenario> built_;
  std::vector<double> plan_s_;
};

// ---------------------------------------------------------------------------

cnn::CnnModel tenant_a_model() {
  return cnn::ModelBuilder("tenant-a", 24, 24, 3)
      .conv_same(8, 3)
      .conv_same(8, 3)
      .maxpool(2, 2)
      .conv_same(12, 3)
      .conv(12, 3, 2, 1)
      .build();
}

cnn::CnnModel tenant_b_model() {
  return cnn::ModelBuilder("tenant-b", 16, 16, 2)
      .conv_same(4, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

class MultiTenantOpen final : public Workload {
 public:
  static constexpr int kStreams = 8;
  static constexpr double kLowRate = 1200;   ///< images/s, aggregate
  static constexpr double kHighRate = 2400;  ///< images/s, aggregate
  static constexpr double kSloMs = 25;       ///< open-loop p99 target

  explicit MultiTenantOpen(Rng& rng) {
    tenants.push_back(make_tenant(tenant_a_model(), 8, rng));
    tenants.push_back(make_tenant(tenant_b_model(), 8, rng));
    // Seeded stream -> tenant assignment, half the streams each.
    for (int s = 0; s < kStreams; ++s) tenant_of_.push_back(s % 2);
    for (int s = kStreams - 1; s > 0; --s) {
      std::swap(tenant_of_[static_cast<std::size_t>(s)],
                tenant_of_[static_cast<std::size_t>(rng.uniform_int(0, s))]);
    }
    const std::vector<double> skew{2.5, 1.0, 1.0, 1.0};
    const std::vector<double> even(kDevices, 1.0);
    const auto& a = tenants[0].model;
    const auto& b = tenants[1].model;
    base_ = {proportional_strategy(a, {0, 2, a.num_layers()}, even),
             proportional_strategy(b, {0, b.num_layers()}, even)};
    alt_ = {proportional_strategy(a, {0, 2, a.num_layers()}, skew),
            proportional_strategy(b, {0, b.num_layers()}, skew)};
  }

  std::unique_ptr<Scene> build(obs::AdminServer* admin) override {
    auto scene = std::make_unique<Scene>();
    scene->strategies = base_;
    FleetSpec spec;
    spec.max_streams = kStreams;
    spec.admin = admin;
    scene->fleet = make_fleet(spec, tenants, scene->strategies);
    scene->loads = open_streams(*scene->fleet, tenants, tenant_of_);
    swapped_ = false;
    return scene;
  }

  double closed_share() const override { return 0.6; }
  int warm_images() const override { return 32; }
  int fleets() const override { return 8; }
  /// A set-up takes about 60 ms here, so one alone reads scheduler noise.
  int setups() const override { return 40; }

  PhaseStats closed_phase(Scene& scene, double seconds,
                          std::uint64_t seed) override {
    return closed_loop(scene.fleet->server(), scene.loads, seconds, 2, seed,
                       swap_odd_streams(scene));
  }

  void extra_phases(Scene& scene, double seconds, std::uint64_t seed,
                    PhaseStats& total, Report& report) override {
    struct Level {
      const char* name;
      double rate;
    };
    double max_rate = 0;
    for (const Level level : {Level{"low", kLowRate}, Level{"high", kHighRate}}) {
      auto st = open_loop(scene.fleet->server(), scene.loads, level.rate,
                          0.2 * seconds, seed * 31 + 7,
                          swap_odd_streams(scene));
      const std::string tag = level.name;
      const double p99 = quantile(st.latency_ms, 0.99);
      report.set("open_p50_ms." + tag, quantile(st.latency_ms, 0.5), "ms");
      report.set("open_p99_ms." + tag, p99, "ms");
      report.set("open_samples." + tag,
                 static_cast<double>(st.latency_ms.size()), "count");
      report.set("open_gen_lag_ms." + tag + ".p99",
                 quantile(st.gen_lag_ms, 0.99), "ms");
      // Failed or refused images miss the SLO; a generator that fell
      // behind by the SLO means the backlog grew.
      const bool met = st.failed == 0 && p99 <= kSloMs &&
                       quantile(st.gen_lag_ms, 0.99) <= kSloMs;
      if (met) max_rate = std::max(max_rate, st.ips());
      total.add(st);
    }
    report.set("max_rate_at_slo_ips", max_rate, "1/s");
  }

 private:
  /// Toggles the odd streams between the base and the skewed strategy:
  /// control-plane writes next to the image traffic.
  std::function<void()> swap_odd_streams(Scene& scene) {
    return [this, &scene] {
      swapped_ = !swapped_;
      const auto& to = swapped_ ? alt_ : base_;
      for (std::size_t s = 1; s < scene.loads.size(); s += 2) {
        const int t = tenant_of_[s];
        scene.fleet->server().swap_strategy(scene.loads[s].id,
                                            to[static_cast<std::size_t>(t)]);
      }
    };
  }

  std::vector<int> tenant_of_;
  std::vector<sim::RawStrategy> base_;
  std::vector<sim::RawStrategy> alt_;
  bool swapped_ = false;
};

// ---------------------------------------------------------------------------

class AdaptiveCollapse final : public Workload {
 public:
  static constexpr Mbps kHi = 90;
  static constexpr Mbps kLo = 6;
  /// Fabric build -> timed window. Device 0's link collapses as the
  /// window opens, after warm-up on the healthy links.
  static constexpr double kLeadS = 0.8;

  explicit AdaptiveCollapse(Rng& rng) {
    tenants.push_back(make_tenant(cnn::edgenet(), 16, rng));
    for (int i = 0; i < kDevices; ++i) {
      latency_.push_back(
          device::make_latency_model(device::DeviceType::kNano));
    }
    shaping_.node_traces.assign(kDevices + 1,
                                net::ThroughputTrace::constant(kHi));
    shaping_.node_traces[0] =
        net::ThroughputTrace(kLeadS, {kHi, kLo});
  }

  std::unique_ptr<Scene> build(obs::AdminServer* admin) override {
    auto scene = std::make_unique<Scene>();
    const net::Network healthy(kDevices, kHi, kHi);
    scene->strategies = {planner_.plan(context(healthy)).to_raw(model())};

    ctrl::ControllerConfig config;
    config.planner = &planner_;
    config.model = &model();
    config.latency = latency_;
    config.network = healthy;
    config.drift_threshold = 0.3;
    config.min_swap_gap_s = 0.5;
    // Plans from link rates alone. Folding in compute measured on a shared
    // host made the first replan keep or drop device 0 depending on how
    // much CPU the host gave at that moment.
    config.calibrate_compute = false;
    scene->controller = std::make_unique<ctrl::Controller>(config);
    scene->controller->start_external(scene->strategies.front());

    FleetSpec spec;
    spec.use_tcp = true;
    spec.shaping = &shaping_;
    spec.tile_pool = false;  // as on edge-stream
    spec.telemetry_every = 1;
    spec.admin = admin;
    scene->fleet = make_fleet(spec, tenants, scene->strategies);
    scene->loads = open_streams(*scene->fleet, tenants, {0});
    scene->fleet->server().attach_controller(scene->loads[0].id,
                                             scene->controller.get());
    return scene;
  }

  PhaseStats closed_phase(Scene& scene, double seconds,
                          std::uint64_t seed) override {
    auto& server = scene.fleet->server();
    const int id = scene.loads[0].id;
    const auto collapse = scene.fleet->built_at() +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(kLeadS));
    std::this_thread::sleep_until(collapse);

    // Watches the stream's epoch count from outside: the first epoch
    // pushed after the collapse is the controller's detection.
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::optional<Clock::time_point> first_swap;
    std::thread watcher([&] {
      std::optional<int> epochs_at_collapse;
      std::unique_lock lock(mu);
      while (!cv.wait_for(lock, std::chrono::milliseconds(2),
                          [&] { return stop; })) {
        if (first_swap.has_value() || Clock::now() < collapse) continue;
        const int epochs = server.snapshot(id).epochs_pushed;
        if (!epochs_at_collapse.has_value()) {
          epochs_at_collapse = epochs;
        } else if (epochs > *epochs_at_collapse) {
          first_swap = Clock::now();
        }
      }
    });
    auto st = closed_loop(server, scene.loads, seconds, 1, seed);
    {
      std::lock_guard lock(mu);
      stop = true;
    }
    cv.notify_one();
    watcher.join();
    detect_ms_.push_back(first_swap ? ms_between(collapse, *first_swap)
                                    : 0.0);
    swaps_.push_back(scene.controller->stats().swaps);
    return st;
  }

  int warm_images() const override { return 32; }
  /// Windows of several seconds keep the slow spell before the swap a
  /// steady share of each fleet's window.
  int fleets() const override { return 5; }

  void layer_metrics(const std::vector<sim::RawStrategy>& strategies,
                     double ips, Report& report) override {
    Workload::layer_metrics(strategies, ips, report);
    net::Network collapsed(kDevices, kHi, kHi);
    collapsed.set_device_link(0, net::Link::constant(kLo));
    const auto ctx = context(collapsed);
    std::vector<double> laps;
    core::DistributionStrategy replanned;
    for (int r = 0; r < 51; ++r) {
      const auto t0 = Clock::now();
      replanned = planner_.plan(ctx);
      laps.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    const auto& initial = strategies.front();
    const double serving_ms =
        sim::execute_strategy(model(), initial, latency_, collapsed).total_ms;
    const double next_ms =
        sim::execute_strategy(model(), replanned.to_raw(model()), latency_,
                              collapsed)
            .total_ms;
    report.set("ctrl.swaps", median(swaps_), "count");
    report.set("ctrl.detect_ms", median(detect_ms_), "ms");
    report.set("ctrl.replan_us", median(laps), "us");
    report.set("ctrl.predicted_gain",
               next_ms > 0 ? serving_ms / next_ms - 1 : 0, "ratio");
  }

 private:
  const cnn::CnnModel& model() const { return tenants[0].model; }
  core::PlanContext context(const net::Network& network) const {
    core::PlanContext ctx;
    ctx.model = &model();
    ctx.latency = latency_;
    ctx.network = &network;
    return ctx;
  }

  sim::ClusterLatency latency_;
  rpc::ShapingSpec shaping_;
  ctrl::BandwidthProportionalPlanner planner_;
  std::vector<double> detect_ms_;  ///< per fleet served
  std::vector<double> swaps_;      ///< per fleet served
};

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name, Rng& rng) {
  if (name == "edge-stream") return std::make_unique<EdgeStream>(rng);
  if (name == "planned-resnet50") return std::make_unique<PlannedResnet50>(rng);
  if (name == "multi-tenant-open") return std::make_unique<MultiTenantOpen>(rng);
  if (name == "adaptive-collapse") return std::make_unique<AdaptiveCollapse>(rng);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// A copy of the data plane's counters at one instant.
struct DataPlaneTotals {
  std::int64_t messages = 0;
  double bytes = 0;
  double wire_bytes = 0;
  double bytes_copied = 0;
  std::int64_t frame_allocs = 0;
  std::int64_t retransmits = 0;
};

DataPlaneTotals totals(const runtime::DataPlaneStats& s) {
  return {s.messages.load(),
          static_cast<double>(s.bytes.load()),
          static_cast<double>(s.wire_bytes.load()),
          static_cast<double>(s.bytes_copied.load()),
          s.frame_allocs.load(),
          s.retransmits.load()};
}

/// Counters read before and after each timed phase.
struct Reading {
  DataPlaneTotals dp;
  /// Per stream, in delivery order, every image so far.
  std::vector<std::vector<double>> server_latency_ms;
  std::int64_t credit_stalls = 0;
  std::uint64_t scratch_allocs = 0;
  ProcSample proc;
};

Reading read(const Scene& scene) {
  Reading r;
  r.dp = totals(scene.fleet->stats());
  for (const auto& load : scene.loads) {
    auto snap = scene.fleet->server().snapshot(load.id);
    r.server_latency_ms.push_back(std::move(snap.latency_ms));
    r.credit_stalls += snap.credit_stalls;
  }
  r.scratch_allocs = cnn::exec_scratch_allocs();
  r.proc = proc_sample();
  return r;
}

/// What the timed phases used, summed over fleets.
struct Usage {
  DataPlaneTotals dp;
  std::vector<double> server_latency_ms;
  std::int64_t credit_stalls = 0;
  std::uint64_t scratch_allocs = 0;
  std::int64_t ctx_switches = 0;

  void add(const Reading& before, const Reading& after) {
    dp.messages += after.dp.messages - before.dp.messages;
    dp.bytes += after.dp.bytes - before.dp.bytes;
    dp.wire_bytes += after.dp.wire_bytes - before.dp.wire_bytes;
    dp.bytes_copied += after.dp.bytes_copied - before.dp.bytes_copied;
    dp.frame_allocs += after.dp.frame_allocs - before.dp.frame_allocs;
    dp.retransmits += after.dp.retransmits - before.dp.retransmits;
    // Keep each stream's images delivered after `before` was read.
    for (std::size_t s = 0; s < after.server_latency_ms.size(); ++s) {
      const auto& seen = after.server_latency_ms[s];
      const auto skip = static_cast<std::ptrdiff_t>(
          before.server_latency_ms[s].size());
      server_latency_ms.insert(server_latency_ms.end(), seen.begin() + skip,
                               seen.end());
    }
    credit_stalls += after.credit_stalls - before.credit_stalls;
    scratch_allocs += after.scratch_allocs - before.scratch_allocs;
    ctx_switches += after.proc.ctx_switches - before.proc.ctx_switches;
  }
};

/// Builds and warms one fleet; returns the set-up time in seconds.
double set_up(Workload& workload, std::unique_ptr<Scene>& scene,
              obs::AdminServer* admin, Report& report) {
  scene.reset();
  const auto t0 = Clock::now();
  scene = workload.build(admin);
  const int count = workload.warm_images();
  report.attempted += count * static_cast<std::int64_t>(scene->loads.size());
  report.failed += warm_up(scene->fleet->server(), scene->loads, count);
  return seconds_since(t0);
}

double per(double count, std::int64_t images) {
  return images > 0 ? count / static_cast<double>(images) : 0;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"edge-stream", "planned-resnet50", "multi-tenant-open",
          "adaptive-collapse"};
}

void run_workload(const Args& args, Report& report) {
  // Inputs and their references come first, outside every timed span.
  Rng rng(args.seed);
  const auto workload = make_workload(args.workload, rng);

  // Untraced: each fleet is set up (setup_s is the median set-up), then
  // serves its share of the closed-loop window; the last one also runs
  // the workload's further phases. Every end-to-end metric comes from here.
  // Unserved set-ups, if any, are spread over the fleets so that they
  // sample the whole run.
  const int fleets = workload->fleets();
  const int unserved_per_fleet = (workload->setups() - fleets) / fleets;
  const double closed_s = args.seconds * workload->closed_share() / fleets;
  std::vector<double> setup_s;
  std::vector<double> fleet_ips;
  PhaseStats all;
  std::vector<double> p50_ms, p90_ms, p99_ms;
  std::vector<double> fleet_cpu_s_per_image;
  std::vector<double> fleet_peak_rss_mb;
  std::size_t latency_samples = 0;
  Usage usage;
  std::unique_ptr<Scene> scene;
  auto sampler = std::make_unique<ThreadSampler>();
  for (int k = 0; k < fleets; ++k) {
    // Each fleet's peak starts from the heap the last one left, trimmed.
    scene.reset();
    malloc_trim(0);
    reset_peak_rss();
    for (int u = 0; u <= unserved_per_fleet; ++u) {
      setup_s.push_back(set_up(*workload, scene, nullptr, report));
    }
    const Reading before = read(*scene);
    const HostCpu host_before = host_cpu();
    PhaseStats phase = workload->closed_phase(
        *scene, closed_s, args.seed * 64 + static_cast<std::uint64_t>(k));
    fleet_ips.push_back(phase.ips());
    p50_ms.push_back(quantile(phase.latency_ms, 0.50));
    p90_ms.push_back(quantile(phase.latency_ms, 0.90));
    p99_ms.push_back(quantile(phase.latency_ms, 0.99));
    latency_samples += phase.latency_ms.size();
    fleet_cpu_s_per_image.push_back(
        per(proc_sample().cpu_s - before.proc.cpu_s, phase.delivered));
    const double steal = steal_share(host_before, host_cpu());
    if (k + 1 == fleets) {
      workload->extra_phases(*scene, args.seconds, args.seed, phase, report);
    }
    usage.add(before, read(*scene));
    all.add(phase);
    fleet_peak_rss_mb.push_back(peak_rss_mb());
    // Per fleet, on stderr: what the medians below are taken over.
    std::fprintf(stderr, "fleet %d: setup_s %.4f ips %.2f p50_ms %.3f "
                 "cpu_s_per_image %.6f peak_rss_mb %.2f host_steal %.3f\n",
                 k, setup_s.back(), fleet_ips.back(), p50_ms.back(),
                 fleet_cpu_s_per_image.back(), fleet_peak_rss_mb.back(), steal);
  }
  const int threads_peak = sampler->peak();
  sampler.reset();
  const auto strategies = scene->strategies;
  scene.reset();
  report.attempted += all.submitted;
  report.failed += all.failed;

  // Like ips, each latency percentile and the CPU seconds per image are
  // taken per fleet over that fleet's closed-loop phase, then the median
  // over fleets is reported.
  const double ips = median(fleet_ips);
  report.set("ips", ips, "1/s");
  report.set("latency_p50_ms", median(p50_ms), "ms");
  report.set("latency_p90_ms", median(p90_ms), "ms");
  report.set("latency_p99_ms", median(p99_ms), "ms");
  report.set("latency_samples", static_cast<double>(latency_samples),
             "count");
  report.set("setup_s", median(setup_s), "s");
  // The first fleet's peak: a fresh process, as one serving deployment
  // runs. Each later fleet starts from a larger heap (see the per-fleet
  // lines), which would make a median over fleets track that growth.
  report.set("peak_rss_mb", fleet_peak_rss_mb.front(), "MB");
  report.set("cpu_s_per_image", median(fleet_cpu_s_per_image), "s");

  if (args.trace) {
    const std::int64_t n = all.delivered;
    report.set("cnn.scratch_allocs",
               static_cast<double>(usage.scratch_allocs), "count");
    report.set("rpc.messages_per_image",
               per(static_cast<double>(usage.dp.messages), n), "count");
    report.set("rpc.wire_bytes_per_image", per(usage.dp.wire_bytes, n), "B");
    report.set("runtime.copies_per_halo_byte",
               usage.dp.bytes > 0 ? usage.dp.bytes_copied / usage.dp.bytes
                                  : 0,
               "ratio");
    report.set("runtime.frame_allocs_per_image",
               per(static_cast<double>(usage.dp.frame_allocs), n), "count");
    report.set("runtime.retransmits",
               static_cast<double>(usage.dp.retransmits), "count");
    report.set("proc.threads_peak", threads_peak, "count");
    report.set("proc.ctx_switches_per_image",
               per(static_cast<double>(usage.ctx_switches), n), "count");
    report.set("serve.submit_block_ms.p99",
               quantile(all.submit_block_ms, 0.99), "ms");
    report.set("serve.pop_wait_ms.p50", quantile(all.pop_wait_ms, 0.50),
               "ms");
    report.set("serve.server_latency_ms.p99",
               quantile(usage.server_latency_ms, 0.99), "ms");
    report.set("serve.credit_stalls",
               static_cast<double>(usage.credit_stalls), "count");
    report.set("serve.admission_refusals", static_cast<double>(all.refused),
               "count");
    report.set("serve.gen_lag_ms.p99", quantile(all.gen_lag_ms, 0.99), "ms");
  }

  if (args.trace) {
    // Traced copy of the closed-loop phase: flight recorder plus the
    // server's admin wiring, rings sized for the whole window.
    obs::TraceConfig config;
    config.ring_capacity = 1 << 17;
    auto& recorder = obs::TraceRecorder::instance();
    obs::AdminServer admin;
    recorder.enable(config);
    set_up(*workload, scene, &admin, report);
    recorder.enable(config);  // fresh rings: the timed window alone
    const PhaseStats traced =
        workload->closed_phase(*scene, closed_s, args.seed + 1);
    recorder.disable();
    obs::TraceCapture capture;
    capture.dump = recorder.snapshot();
    capture.node_origin_us = scene->fleet->fabric().node_origin_us;
    scene.reset();
    report.attempted += traced.submitted;
    report.failed += traced.failed;

    const auto split = split_trace(capture);
    report.set("runtime.scatter_ms", split.scatter_ms, "ms");
    report.set("runtime.compute_ms", split.compute_ms, "ms");
    report.set("runtime.halo_wait_ms", split.halo_wait_ms, "ms");
    report.set("runtime.gather_wait_ms", split.gather_wait_ms, "ms");
    report.set("runtime.unattributed_ms", split.unattributed_ms, "ms");
    report.set("runtime.straggler_max_score", split.straggler_max_score,
               "ratio");
    report.set("runtime.incomplete_frac", split.incomplete_frac, "ratio");
    report.set("runtime.traced_images", static_cast<double>(split.images),
               "count");
    report.set("obs.trace_overhead_frac",
               ips > 0 ? 1 - traced.ips() / ips : 0, "ratio");
    report.set("obs.trace_dropped_frac", split.dropped_frac, "ratio");

    // Layer probes on the served model and strategy, fleet torn down.
    const auto& tenant = workload->tenants.front();
    const auto cnn_probe = probe_cnn(tenant, strategies.front(), 5);
    report.set("cnn.compute_ms_per_image", cnn_probe.compute_ms_per_image,
               "ms");
    report.set("cnn.critical_device_ms", cnn_probe.critical_device_ms, "ms");
    report.set("cnn.gflops", cnn_probe.gflops, "GFLOP/s");
    const auto rpc_probe = probe_rpc(tenant, strategies.front(), 21);
    report.set("rpc.encode_us_per_image", rpc_probe.encode_us_per_image, "us");
    report.set("rpc.decode_us_per_image", rpc_probe.decode_us_per_image, "us");
    report.set("rpc.tcp_oneway_us", rpc_probe.tcp_oneway_us, "us");
    workload->layer_metrics(strategies, ips, report);
  }

  report.set("failed_frac",
             report.attempted > 0 ? static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted)
                                  : 0,
             "ratio");
}

}  // namespace distbench
