// The multi-tenant serving front door: N concurrent client streams over one
// shared provider fleet must each reproduce the single-device reference
// bit-for-bit — across tenants with different models, across mid-stream
// per-stream strategy swaps (which must never reconfigure another tenant),
// over InProc and loopback TCP fabrics including faulted and shaped wires —
// and a slow consumer may stall only its own stream, never the fleet. A
// swap lands exactly on the image it was registered before, and a
// wrong-shaped input is refused at the door instead of downing the fleet.
#include "serve/stream_server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/strategy.hpp"
#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "ctrl/planner.hpp"
#include "device/device.hpp"
#include "net/network.hpp"
#include "runtime/cluster.hpp"
#include "runtime/fabric.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"

namespace de::serve {
namespace {

cnn::CnnModel model_a() {
  return cnn::ModelBuilder("tenant-a", 20, 20, 3)
      .conv_same(6, 3)
      .conv_same(6, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .conv(8, 3, 2, 1)
      .build();
}

cnn::CnnModel model_b() {
  return cnn::ModelBuilder("tenant-b", 16, 16, 2)
      .conv_same(4, 3)
      .maxpool(2, 2)
      .conv_same(8, 3)
      .build();
}

std::vector<cnn::Tensor> random_inputs(const cnn::CnnModel& m, int n,
                                       Rng& rng) {
  std::vector<cnn::Tensor> inputs;
  for (int k = 0; k < n; ++k) {
    cnn::Tensor t(m.input_h(), m.input_w(), m.input_c());
    for (auto& v : t.data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

sim::RawStrategy equal_strategy(const cnn::CnnModel& m,
                                const std::vector<int>& boundaries,
                                int n_devices) {
  sim::RawStrategy strategy;
  strategy.volumes = cnn::volumes_from_boundaries(boundaries, m.num_layers());
  for (const auto& v : strategy.volumes) {
    strategy.cuts.push_back(
        core::equal_split(cnn::volume_out_height(m, v), n_devices).cuts);
  }
  return strategy;
}

sim::RawStrategy weighted_strategy(const cnn::CnnModel& m,
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

void expect_equal(const cnn::Tensor& a, const cnn::Tensor& b,
                  const std::string& what) {
  ASSERT_EQ(a.h, b.h) << what;
  ASSERT_EQ(a.w, b.w) << what;
  ASSERT_EQ(a.c, b.c) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " flat index " << i;
  }
}

/// One fleet + door, everything wired: two tenant models, the provider
/// threads, and the server. Joins the fleet on destruction.
struct Harness {
  int n_devices;
  cnn::CnnModel ma = model_a();
  cnn::CnnModel mb = model_b();
  std::vector<cnn::ConvWeights> wa;
  std::vector<cnn::ConvWeights> wb;
  runtime::ClusterFabric fabric;
  runtime::DataPlaneStats stats;
  std::vector<runtime::TenantModel> fleet_models;
  std::vector<TenantSpec> fleet;
  runtime::Supervisor providers;
  std::unique_ptr<StreamServer> server;

  Harness(int n_devices_, bool use_tcp, StreamServerOptions options = {},
          const rpc::FaultSpec* faults = nullptr,
          const rpc::ShapingSpec* shaping = nullptr, int telemetry_every = 0,
          int heartbeat_ms = 0, int max_restarts = 0)
      : n_devices(n_devices_) {
    Rng rng(23);
    wa = runtime::random_weights(ma, rng);
    wb = runtime::random_weights(mb, rng);
    fabric = runtime::make_fabric(n_devices, use_tcp, faults, {}, shaping);
    fleet_models = {{&ma, &wa}, {&mb, &wb}};
    fleet = {TenantSpec{&ma, &wa, equal_strategy(ma, {0, 5}, n_devices)},
             TenantSpec{&mb, &wb, equal_strategy(mb, {0, 3}, n_devices)}};
    providers = runtime::spawn_providers_multi(
        fabric, n_devices, fleet_models, stats, options.reliability, {}, {},
        telemetry_every, heartbeat_ms, max_restarts);
    server = std::make_unique<StreamServer>(fabric.requester(), n_devices,
                                            fleet, stats, options);
  }

  ~Harness() {
    server->close();
    providers.join_all();
  }

  const cnn::CnnModel& model(int id) const { return id == 0 ? ma : mb; }
  const std::vector<cnn::ConvWeights>& weights(int id) const {
    return id == 0 ? wa : wb;
  }
};

/// Runs one client stream to completion: submit all inputs (from this
/// thread or a helper), pop all outputs, compare each against the
/// single-device reference.
void run_and_check_stream(Harness& h, int stream, int model_id,
                          const std::vector<cnn::Tensor>& inputs) {
  std::thread producer([&h, stream, &inputs] {
    for (const auto& input : inputs) {
      ASSERT_TRUE(h.server->submit(stream, input));
    }
  });
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    auto out = h.server->pop(stream);
    ASSERT_TRUE(out.has_value()) << "stream " << stream << " image " << k;
    const auto reference =
        runtime::run_reference(h.model(model_id), h.weights(model_id), inputs[k]);
    expect_equal(*out, reference,
                 "stream " + std::to_string(stream) + " image " +
                     std::to_string(k));
  }
  producer.join();
}

TEST(StreamServer, TwoTenantsConcurrentStreamsBitExact) {
  Harness h(3, /*use_tcp=*/false);
  Rng rng(7);
  constexpr int kStreams = 4;
  constexpr int kImages = 5;
  std::vector<int> models = {0, 1, 0, 1};
  std::vector<int> ids(kStreams);
  std::vector<std::vector<cnn::Tensor>> inputs(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    ids[s] = h.server->open_stream(models[static_cast<std::size_t>(s)]);
    ASSERT_GE(ids[s], 0);
    inputs[static_cast<std::size_t>(s)] =
        random_inputs(h.model(models[static_cast<std::size_t>(s)]), kImages,
                      rng);
  }
  std::vector<std::thread> clients;
  for (int s = 0; s < kStreams; ++s) {
    clients.emplace_back([&h, &ids, &models, &inputs, s] {
      run_and_check_stream(h, ids[static_cast<std::size_t>(s)],
                           models[static_cast<std::size_t>(s)],
                           inputs[static_cast<std::size_t>(s)]);
    });
  }
  for (auto& t : clients) t.join();
  for (int s = 0; s < kStreams; ++s) {
    const auto snap = h.server->snapshot(ids[static_cast<std::size_t>(s)]);
    EXPECT_EQ(snap.submitted, kImages);
    EXPECT_EQ(snap.delivered, kImages);
    EXPECT_EQ(static_cast<int>(snap.latency_ms.size()), kImages);
  }
}

TEST(StreamServer, PerStreamSwapNeverTouchesOtherTenants) {
  Harness h(3, /*use_tcp=*/false);
  Rng rng(13);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 6, rng);
  const auto in_b = random_inputs(h.mb, 6, rng);

  // Tenant A swaps to a skewed partition (and an extra volume boundary)
  // mid-stream; tenant B keeps serving untouched throughout.
  std::thread client_a([&] {
    for (int k = 0; k < 6; ++k) {
      if (k == 3) {
        h.server->swap_strategy(
            sa, weighted_strategy(h.ma, {0, 3, 5}, {3.0, 1.0, 1.0}));
      }
      ASSERT_TRUE(h.server->submit(sa, in_a[static_cast<std::size_t>(k)]));
      auto out = h.server->pop(sa);
      ASSERT_TRUE(out.has_value());
      expect_equal(*out, runtime::run_reference(h.ma, h.wa, in_a[static_cast<std::size_t>(k)]),
                   "tenant A image " + std::to_string(k));
    }
  });
  std::thread client_b([&] {
    run_and_check_stream(h, sb, 1, in_b);
  });
  client_a.join();
  client_b.join();

  // The swap really happened — and only on tenant A's lane.
  EXPECT_EQ(h.server->snapshot(sa).epochs_pushed, 2);
  EXPECT_EQ(h.server->snapshot(sb).epochs_pushed, 1);
}

TEST(StreamServer, SlowConsumerStallsOnlyItsOwnStream) {
  StreamServerOptions options;
  options.default_window = 2;
  Harness h(2, /*use_tcp=*/false, options);
  Rng rng(31);
  const int slow = h.server->open_stream(0);
  const int fast = h.server->open_stream(0);
  ASSERT_GE(slow, 0);
  ASSERT_GE(fast, 0);

  // The slow stream fills its whole window and its consumer never pops.
  const auto slow_inputs = random_inputs(h.ma, 2, rng);
  for (const auto& input : slow_inputs) {
    ASSERT_TRUE(h.server->submit(slow, input));
  }

  // The fast stream pushes 8 images straight through the shared fleet
  // while the slow stream's window stays exhausted. If the slow stream
  // could block the pump (head-of-line), this would deadlock the test.
  const auto fast_inputs = random_inputs(h.ma, 8, rng);
  run_and_check_stream(h, fast, 0, fast_inputs);
  EXPECT_EQ(h.server->snapshot(fast).delivered, 8);
  EXPECT_EQ(h.server->snapshot(slow).delivered, 0);

  // The slow consumer finally shows up; nothing was lost.
  for (const auto& input : slow_inputs) {
    auto out = h.server->pop(slow);
    ASSERT_TRUE(out.has_value());
    expect_equal(*out, runtime::run_reference(h.ma, h.wa, input), "slow stream");
  }
}

TEST(StreamServer, WrongShapedSubmitIsRefusedAtTheDoor) {
  // One client's malformed tensor must be refused by submit(): it may reach
  // neither the pump (a short image fails the scatter encode there) nor a
  // provider (a wide one fails chunk geometry there) — either would take
  // every tenant down with it.
  Harness h(2, /*use_tcp=*/false);
  Rng rng(101);
  const int bad = h.server->open_stream(0);
  const int good = h.server->open_stream(1);
  ASSERT_GE(bad, 0);
  ASSERT_GE(good, 0);
  EXPECT_FALSE(h.server->submit(
      bad, cnn::Tensor(h.ma.input_h() - 3, h.ma.input_w(), h.ma.input_c())));
  EXPECT_FALSE(h.server->submit(
      bad, cnn::Tensor(h.ma.input_h(), h.ma.input_w() + 2, h.ma.input_c())));
  EXPECT_FALSE(h.server->submit(bad, random_inputs(h.mb, 1, rng).front()));

  // The other tenant's stream still delivers bit-exact...
  run_and_check_stream(h, good, 1, random_inputs(h.mb, 4, rng));
  // ...and so does the refused stream, once its inputs fit.
  run_and_check_stream(h, bad, 0, random_inputs(h.ma, 2, rng));
  EXPECT_FALSE(h.server->down());
  EXPECT_EQ(h.server->snapshot(bad).submitted, 2);
}

TEST(StreamServer, SwapsLandOnTheirSubmissionIndex) {
  // swap_strategy() takes effect from the stream's next *submitted* image,
  // however far dispatch lags behind submission: one stream runs flat out
  // while the other's consumer stalls until the first is done, so its
  // producer keeps swapping into a backed-up window.
  Harness h(2, /*use_tcp=*/false);
  Rng rng(103);
  const int fast = h.server->open_stream(0);
  const int slow = h.server->open_stream(1);
  ASSERT_GE(fast, 0);
  ASSERT_GE(slow, 0);
  // A strategy that does not fit is refused to the caller, not the pump.
  EXPECT_THROW(h.server->swap_strategy(fast, sim::RawStrategy{}), Error);

  const auto in_fast = random_inputs(h.ma, 12, rng);
  const auto in_slow = random_inputs(h.mb, 10, rng);
  const std::map<int, sim::RawStrategy> fast_swaps{
      {4, weighted_strategy(h.ma, {0, 3, 5}, {3.0, 1.0})},
      {9, weighted_strategy(h.ma, {0, 2, 5}, {1.0, 2.0})}};
  const std::map<int, sim::RawStrategy> slow_swaps{
      {2, weighted_strategy(h.mb, {0, 1, 3}, {1.0, 3.0})},
      {6, weighted_strategy(h.mb, {0, 3}, {2.0, 1.0})}};
  const auto produce = [&h](int stream,
                            const std::vector<cnn::Tensor>& inputs,
                            const std::map<int, sim::RawStrategy>& swaps) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      if (auto it = swaps.find(static_cast<int>(k)); it != swaps.end()) {
        h.server->swap_strategy(stream, it->second);
      }
      ASSERT_TRUE(h.server->submit(stream, inputs[k]));
    }
  };
  const auto consume = [&h](int stream, int model_id,
                            const std::vector<cnn::Tensor>& inputs) {
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      auto out = h.server->pop(stream);
      ASSERT_TRUE(out.has_value()) << "stream " << stream << " image " << k;
      expect_equal(*out,
                   runtime::run_reference(h.model(model_id),
                                          h.weights(model_id), inputs[k]),
                   "stream " + std::to_string(stream) + " image " +
                       std::to_string(k));
    }
  };
  std::thread fast_producer([&] { produce(fast, in_fast, fast_swaps); });
  std::thread slow_producer([&] { produce(slow, in_slow, slow_swaps); });
  consume(fast, 0, in_fast);  // the slow stream's consumer is stalled
  fast_producer.join();
  consume(slow, 1, in_slow);
  slow_producer.join();

  for (const auto& [stream, swaps] :
       {std::pair{fast, &fast_swaps}, std::pair{slow, &slow_swaps}}) {
    const auto snap = h.server->snapshot(stream);
    EXPECT_EQ(snap.epochs_pushed, 1 + static_cast<int>(swaps->size()));
    ASSERT_EQ(snap.reconfigurations.size(), swaps->size());
    auto expected = swaps->begin();
    for (const auto& event : snap.reconfigurations) {
      EXPECT_EQ(event.from_image, (expected++)->first)
          << "stream " << stream << " epoch " << event.epoch;
    }
  }
}

TEST(StreamServer, AdmissionControl) {
  StreamServerOptions options;
  options.max_streams = 2;
  Harness h(2, /*use_tcp=*/false, options);
  EXPECT_EQ(h.server->open_stream(/*model_id=*/7), -1);   // unknown tenant
  EXPECT_EQ(h.server->open_stream(0, /*window=*/-1), -1); // malformed
  const int a = h.server->open_stream(0);
  const int b = h.server->open_stream(1);
  EXPECT_GE(a, 0);
  EXPECT_GE(b, 0);
  EXPECT_EQ(h.server->open_stream(0), -1);  // cap reached
  // Closing a stream frees its admission slot.
  h.server->close_stream(a);
  EXPECT_GE(h.server->open_stream(0), 0);
}

TEST(StreamServer, TcpFabricMultiStreamBitExact) {
  Harness h(2, /*use_tcp=*/true);
  Rng rng(41);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 4, rng);
  const auto in_b = random_inputs(h.mb, 4, rng);
  std::thread client_a([&] { run_and_check_stream(h, sa, 0, in_a); });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
}

TEST(StreamServer, FaultedFabricMultiStreamBitExact) {
  rpc::FaultSpec faults;
  faults.seed = 77;
  faults.drop_prob = 0.05;
  faults.dup_prob = 0.05;
  faults.delay_prob = 0.10;
  StreamServerOptions options;
  options.reliability.enabled = true;
  Harness h(2, /*use_tcp=*/false, options, &faults);
  Rng rng(59);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 4, rng);
  const auto in_b = random_inputs(h.mb, 4, rng);
  std::thread client_a([&] {
    for (int k = 0; k < 4; ++k) {
      if (k == 2) {
        // The swap's kReconfigure rides the same retransmission protocol
        // as the data it gates.
        h.server->swap_strategy(
            sa, weighted_strategy(h.ma, {0, 5}, {1.0, 2.0}));
      }
      ASSERT_TRUE(h.server->submit(sa, in_a[static_cast<std::size_t>(k)]));
      auto out = h.server->pop(sa);
      ASSERT_TRUE(out.has_value());
      expect_equal(*out, runtime::run_reference(h.ma, h.wa, in_a[static_cast<std::size_t>(k)]),
                   "faulted tenant A image " + std::to_string(k));
    }
  });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
  EXPECT_EQ(h.server->snapshot(sa).epochs_pushed, 2);
  EXPECT_EQ(h.server->snapshot(sb).epochs_pushed, 1);
}

TEST(StreamServer, ShapedFabricMultiStreamBitExact) {
  const auto shaping = rpc::ShapingSpec::uniform(/*n_nodes=*/3, /*rate=*/400.0);
  Harness h(2, /*use_tcp=*/false, {}, nullptr, &shaping);
  Rng rng(67);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  const auto in_a = random_inputs(h.ma, 3, rng);
  const auto in_b = random_inputs(h.mb, 3, rng);
  std::thread client_a([&] { run_and_check_stream(h, sa, 0, in_a); });
  std::thread client_b([&] { run_and_check_stream(h, sb, 1, in_b); });
  client_a.join();
  client_b.join();
}

TEST(StreamServer, PerTenantControllerFedFromSharedTelemetry) {
  ctrl::BandwidthProportionalPlanner planner;
  Harness h(2, /*use_tcp=*/false, {}, nullptr, nullptr,
            /*telemetry_every=*/1);
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &h.ma;
  for (int i = 0; i < 2; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(2, 100.0);
  ctrl::Controller controller(config);
  controller.start_external(h.fleet[0].strategy);

  Rng rng(71);
  const int sa = h.server->open_stream(0);
  ASSERT_GE(sa, 0);
  h.server->attach_controller(sa, &controller);
  const auto in_a = random_inputs(h.ma, 6, rng);
  run_and_check_stream(h, sa, 0, in_a);
  // Providers published one frame per finished image; the door fanned them
  // into the tenant's controller.
  EXPECT_GT(controller.stats().telemetry_frames, 0);
  h.server->close();  // the pump feeds `controller`, which dies before `h`
}

TEST(StreamServer, RetiredLaneIsEvictedAcrossTheFleet) {
  // Epoch-lane GC: a closed, fully drained stream must not pin its epoch
  // lane (schedules, owner rows, epoch history) on the providers forever.
  // The door posts kLaneEvict once the lane is quiescent; every provider
  // drops the lane as soon as its dispatch cursor passes the watermark.
  Harness h(2, /*use_tcp=*/false);
  Rng rng(97);
  const int sa = h.server->open_stream(0);
  ASSERT_GE(sa, 0);
  run_and_check_stream(h, sa, 0, random_inputs(h.ma, 3, rng));
  h.server->close_stream(sa);

  // Unrelated traffic advances the providers past the eviction watermark.
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sb, 0);
  run_and_check_stream(h, sb, 1, random_inputs(h.mb, 6, rng));

  // Both providers eventually drop tenant A's retired lane.
  for (int spin = 0; spin < 500 && h.stats.lanes_evicted.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(h.stats.lanes_evicted.load(), 2);

  // The fleet is still fully serviceable after the eviction.
  const int sc = h.server->open_stream(0);
  ASSERT_GE(sc, 0);
  run_and_check_stream(h, sc, 0, random_inputs(h.ma, 2, rng));
}

TEST(StreamServer, StreamsSurviveFleetChurn) {
  // Front-door churn: a device dies while two tenants are mid-stream, the
  // attached controller's lease lapses, the pump cancels + re-dispatches
  // the dead device's in-flight work for EVERY stream (the non-owning
  // tenant is masked off the dead device too), and when the device comes
  // back it is adopted as a joiner. Both streams stay bit-exact throughout.
  rpc::FaultSpec faults;  // zero probabilities: a pure kill switch
  faults.seed = 5;
  StreamServerOptions options;
  options.reliability.enabled = true;
  Harness h(3, /*use_tcp=*/false, options, &faults, nullptr,
            /*telemetry_every=*/1, /*heartbeat_ms=*/5, /*max_restarts=*/8);

  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &h.ma;
  for (int i = 0; i < 3; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(3, 100.0);
  config.lease_ms = 80;
  config.drift_threshold = 1e9;  // membership decisions only
  ctrl::Controller controller(config);
  controller.start_external(h.fleet[0].strategy);

  Rng rng(89);
  const int sa = h.server->open_stream(0);
  const int sb = h.server->open_stream(1);
  ASSERT_GE(sa, 0);
  ASSERT_GE(sb, 0);
  h.server->attach_controller(sa, &controller);
  const auto in_a = random_inputs(h.ma, 12, rng);
  const auto in_b = random_inputs(h.mb, 12, rng);

  const auto serve_range = [&](int stream, int model_id,
                               const std::vector<cnn::Tensor>& inputs,
                               int begin, int end) {
    for (int k = begin; k < end; ++k) {
      const auto& input = inputs[static_cast<std::size_t>(k)];
      ASSERT_TRUE(h.server->submit(stream, input));
      auto out = h.server->pop(stream);
      ASSERT_TRUE(out.has_value()) << "stream " << stream << " image " << k;
      expect_equal(*out,
                   runtime::run_reference(h.model(model_id),
                                          h.weights(model_id), input),
                   "churn stream " + std::to_string(stream) + " image " +
                       std::to_string(k));
    }
  };

  // Healthy fleet.
  serve_range(sa, 0, in_a, 0, 4);
  serve_range(sb, 1, in_b, 0, 4);

  // Device 1 dies. The next pops block until the lease lapses and the pump
  // replans both tenants over the survivors — then complete bit-exact.
  h.fabric.set_node_down(1, true);
  serve_range(sa, 0, in_a, 4, 8);
  serve_range(sb, 1, in_b, 4, 8);
  EXPECT_EQ(controller.stats().deaths, 1);

  // Device 1 comes back and is adopted as a joiner at an epoch boundary.
  h.fabric.set_node_down(1, false);
  for (int spin = 0; spin < 1000 && controller.stats().joins < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(controller.stats().joins, 1);
  serve_range(sa, 0, in_a, 8, 12);
  serve_range(sb, 1, in_b, 8, 12);

  EXPECT_EQ(h.server->snapshot(sa).delivered, 12);
  EXPECT_EQ(h.server->snapshot(sb).delivered, 12);
  h.server->close();  // the pump feeds `controller`, which dies before `h`
}

/// Forwards every call to `inner`; the two wrappers below override one.
class ForwardingTransport : public rpc::Transport {
 public:
  explicit ForwardingTransport(rpc::Transport& inner) : inner_(inner) {}
  rpc::NodeId local_node() const override { return inner_.local_node(); }
  rpc::Address open_mailbox(rpc::MailboxId id) override {
    return inner_.open_mailbox(id);
  }
  void send(const rpc::Address& to, rpc::Frame frame) override {
    inner_.send(to, std::move(frame));
  }
  std::optional<rpc::Frame> receive(rpc::MailboxId id) override {
    return inner_.receive(id);
  }
  std::optional<rpc::Frame> try_receive(rpc::MailboxId id) override {
    return inner_.try_receive(id);
  }
  rpc::RecvStatus receive_for(rpc::MailboxId id, int timeout_ms,
                              rpc::Frame& out) override {
    return inner_.receive_for(id, timeout_ms, out);
  }
  std::size_t pending(rpc::MailboxId id) const override {
    return inner_.pending(id);
  }
  void shutdown() override { inner_.shutdown(); }

 protected:
  rpc::Transport& inner_;
};

/// The door's endpoint, seen from its telemetry mailbox: hold() parks the
/// pump's next control drain (a pump stalled on a loaded host) until
/// release(), and every telemetry report the pump drains is recorded.
class TelemetryTap final : public ForwardingTransport {
 public:
  using ForwardingTransport::ForwardingTransport;

  std::optional<rpc::Frame> try_receive(rpc::MailboxId id) override {
    if (id != rpc::kTelemetryMailbox) return inner_.try_receive(id);
    std::unique_lock lk(mu_);
    parked_ = held_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return !held_; });
    parked_ = false;
    auto frame = inner_.try_receive(id);
    if (frame && rpc::peek_type(*frame) == rpc::MsgType::kTelemetry) {
      compute_ms_.push_back(rpc::decode_telemetry(*frame).compute_ms);
    }
    return frame;
  }

  void hold() {
    std::lock_guard lk(mu_);
    held_ = true;
  }
  /// True once the pump is parked at the gate (false after 10 s).
  bool wait_parked() {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10),
                        [this] { return parked_; });
  }
  void release() {
    {
      std::lock_guard lk(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }
  std::vector<double> compute_ms() const {
    std::lock_guard lk(mu_);
    return compute_ms_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool parked_ = false;
  std::vector<double> compute_ms_;  ///< per drained telemetry report
};

TEST(StreamServer, LateHeartbeatBacklogKillsNobody) {
  // The pump stalls past a lease while every node's fresh heartbeat queues
  // in the door's control mailbox. When it drains again it must renew the
  // whole backlog before it judges any lease: sweeping right after the
  // first beat would declare the nodes whose beats sit behind it dead.
  constexpr int kDevices = 3;
  constexpr int kLeaseMs = 50;
  cnn::CnnModel m = model_a();
  Rng rng(31);
  const auto w = runtime::random_weights(m, rng);
  auto fabric = runtime::make_fabric(kDevices, /*use_tcp=*/false);
  runtime::DataPlaneStats stats;
  const std::vector<runtime::TenantModel> fleet_models{{&m, &w}};
  const std::vector<TenantSpec> fleet{
      TenantSpec{&m, &w, equal_strategy(m, {0, 5}, kDevices)}};
  auto providers =
      runtime::spawn_providers_multi(fabric, kDevices, fleet_models, stats);
  TelemetryTap door(fabric.requester());

  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &m;
  for (int i = 0; i < kDevices; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(kDevices, 100.0);
  config.lease_ms = kLeaseMs;
  config.drift_threshold = 1e9;  // membership decisions only
  ctrl::Controller controller(config);
  controller.start_external(fleet[0].strategy);

  StreamServer server(door, kDevices, fleet, stats);
  const int stream = server.open_stream(0);
  ASSERT_GE(stream, 0);
  server.attach_controller(stream, &controller);

  // The providers publish no heartbeats of their own: the test beats for
  // every node, one round at a time.
  std::uint32_t round = 0;
  const auto beat_all = [&] {
    ++round;
    for (rpc::NodeId node = 0; node < kDevices; ++node) {
      fabric.endpoints[static_cast<std::size_t>(node)]->send(
          rpc::Address{kDevices, rpc::kTelemetryMailbox},
          rpc::Frame(rpc::encode_heartbeat(rpc::HeartbeatMsg{node, round, 0})));
    }
  };
  const auto renewed = [&](std::int64_t heartbeats) {
    for (int spin = 0;
         spin < 5000 && controller.stats().heartbeats < heartbeats; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return controller.stats().heartbeats;
  };

  beat_all();
  EXPECT_EQ(renewed(kDevices), kDevices);
  door.hold();
  EXPECT_TRUE(door.wait_parked());
  std::this_thread::sleep_for(std::chrono::milliseconds(3 * kLeaseMs));
  beat_all();  // queues behind the parked drain, every lease already lapsed
  door.release();
  EXPECT_EQ(renewed(2 * kDevices), 2 * kDevices);
  // One more round: its drain comes after the backlog's sweep finished.
  beat_all();
  EXPECT_EQ(renewed(3 * kDevices), 3 * kDevices);
  EXPECT_EQ(controller.stats().deaths, 0);
  EXPECT_EQ(controller.stats().joins, 0);
  server.close();
}

TEST(StreamServer, NodeThatNeverSpeaksIsDeclaredDeadAndServingCompletes) {
  // Device 1 is down before its provider starts, so it never heartbeats.
  // Its boot window (kBootLeases leases from the door's first sweep) keeps
  // it planned in at first and the first image waits on it; once the
  // window lapses it is declared dead, the pump replans over the survivors
  // and every image completes bit-exact. It never joins.
  constexpr int kDevices = 3;
  constexpr int kLeaseMs = 40;
  cnn::CnnModel m = model_a();
  Rng rng(37);
  const auto w = runtime::random_weights(m, rng);
  rpc::FaultSpec faults;  // zero probabilities: a pure kill switch
  auto fabric = runtime::make_fabric(kDevices, /*use_tcp=*/false, &faults);
  fabric.set_node_down(1, true);
  runtime::DataPlaneStats stats;
  const std::vector<runtime::TenantModel> fleet_models{{&m, &w}};
  const std::vector<TenantSpec> fleet{
      TenantSpec{&m, &w, equal_strategy(m, {0, 5}, kDevices)}};
  StreamServerOptions options;
  options.reliability.enabled = true;
  auto providers = runtime::spawn_providers_multi(
      fabric, kDevices, fleet_models, stats, options.reliability, {}, {},
      /*telemetry_every=*/0, /*heartbeat_ms=*/5);

  ctrl::BandwidthProportionalPlanner planner;
  ctrl::ControllerConfig config;
  config.planner = &planner;
  config.model = &m;
  for (int i = 0; i < kDevices; ++i) {
    config.latency.push_back(
        device::make_latency_model(device::DeviceType::kNano));
  }
  config.network = net::Network(kDevices, 100.0);
  config.lease_ms = kLeaseMs;
  config.drift_threshold = 1e9;  // membership decisions only
  ctrl::Controller controller(config);
  controller.start_external(fleet[0].strategy);

  StreamServer server(fabric.requester(), kDevices, fleet, stats, options);
  const int stream = server.open_stream(0);
  ASSERT_GE(stream, 0);
  server.attach_controller(stream, &controller);

  const auto inputs = random_inputs(m, 6, rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ASSERT_TRUE(server.submit(stream, inputs[k]));
    auto out = server.pop(stream);
    ASSERT_TRUE(out.has_value()) << "image " << k;
    expect_equal(*out, runtime::run_reference(m, w, inputs[k]),
                 "image " + std::to_string(k));
  }
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(controller.stats().deaths, 1);
  EXPECT_EQ(controller.stats().joins, 0);
  EXPECT_GE(waited, std::chrono::milliseconds(ctrl::TelemetryBook::kBootLeases *
                                              kLeaseMs));
  server.close();
  fabric.shutdown_all();  // device 1 never hears the door's kShutdown
  providers.join_all();
}

/// A provider's endpoint whose every data-plane send first sleeps kDelay,
/// as a loopback TCP write can when the peer's socket buffers are full.
class SlowDataSends final : public ForwardingTransport {
 public:
  static constexpr auto kDelay = std::chrono::milliseconds(50);
  using ForwardingTransport::ForwardingTransport;

  void send(const rpc::Address& to, rpc::Frame frame) override {
    if (to.mailbox == rpc::kDataMailbox) std::this_thread::sleep_for(kDelay);
    inner_.send(to, std::move(frame));
  }
};

TEST(StreamServer, TelemetryComputeLeavesOutSendTime) {
  // Providers send their halo and gather chunks on the computing thread.
  // The per-image compute they report must count the kernels only: the
  // controller scales its per-device compute model by that figure, so a
  // device whose sends wait on the wire must not look slower at compute.
  // Every send here waits 50 ms; this model's kernels take far less.
  constexpr int kDevices = 2;
  cnn::CnnModel m = model_a();
  Rng rng(37);
  const auto w = runtime::random_weights(m, rng);
  auto fabric = runtime::make_fabric(kDevices, /*use_tcp=*/false);
  std::vector<std::unique_ptr<SlowDataSends>> slow;
  for (int i = 0; i < kDevices; ++i) {
    auto& endpoint = fabric.endpoints[static_cast<std::size_t>(i)];
    slow.push_back(std::make_unique<SlowDataSends>(*endpoint));
    endpoint = slow.back().get();
  }
  runtime::DataPlaneStats stats;
  const std::vector<runtime::TenantModel> fleet_models{{&m, &w}};
  // Two volumes: every image crosses a halo exchange and a gather.
  const std::vector<TenantSpec> fleet{
      TenantSpec{&m, &w, equal_strategy(m, {0, 2, 5}, kDevices)}};
  auto providers = runtime::spawn_providers_multi(
      fabric, kDevices, fleet_models, stats, {}, {}, {},
      /*telemetry_every=*/1);
  TelemetryTap door(fabric.requester());
  StreamServer server(door, kDevices, fleet, stats);

  const int stream = server.open_stream(0);
  ASSERT_GE(stream, 0);
  const auto inputs = random_inputs(m, 3, rng);
  for (const auto& input : inputs) {
    ASSERT_TRUE(server.submit(stream, input));
    auto out = server.pop(stream);
    ASSERT_TRUE(out.has_value());
    expect_equal(*out, runtime::run_reference(m, w, input), "slow-send image");
  }
  // One report per provider per image; the last ones may still be queued.
  const auto want = static_cast<std::size_t>(kDevices) * inputs.size();
  for (int spin = 0; spin < 5000 && door.compute_ms().size() < want; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto reports = door.compute_ms();
  ASSERT_EQ(reports.size(), want);
  for (const double ms : reports) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, static_cast<double>(SlowDataSends::kDelay.count()))
        << "send time counted as compute";
  }
  server.close();
}

}  // namespace
}  // namespace de::serve
