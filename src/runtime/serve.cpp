#include "runtime/serve.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/require.hpp"
#include "ctrl/controller.hpp"
#include "obs/trace.hpp"
#include "runtime/fabric.hpp"
#include "runtime/runtime_metrics.hpp"
#include "serve/stream_server.hpp"
#include "sim/fault_model.hpp"

namespace de::runtime {

ServeResult serve_stream(const cnn::CnnModel& model,
                         const sim::RawStrategy& strategy,
                         const std::vector<cnn::ConvWeights>& weights,
                         std::span<const cnn::Tensor> inputs, int n_devices,
                         const ServeOptions& options) {
  DE_REQUIRE(!inputs.empty(), "serve_stream needs at least one image");
  DE_REQUIRE(options.inflight >= 1, "need at least one image in flight");
  DE_REQUIRE(options.faults == nullptr || options.reliability.enabled,
             "fault injection without the reliability protocol would hang "
             "the chunk accounting — enable ServeOptions::reliability");
  DE_REQUIRE(std::is_sorted(options.swaps.begin(), options.swaps.end(),
                            [](const ScriptedSwap& a, const ScriptedSwap& b) {
                              return a.at_image < b.at_image;
                            }),
             "scripted swaps must be sorted by at_image");
  DE_REQUIRE(std::is_sorted(options.chaos.begin(), options.chaos.end(),
                            [](const ChaosEvent& a, const ChaosEvent& b) {
                              return a.at_image < b.at_image;
                            }),
             "chaos events must be sorted by at_image");
  DE_REQUIRE(options.chaos.empty() ||
                 (options.faults != nullptr && options.controller != nullptr &&
                  options.heartbeat_ms > 0),
             "a chaos schedule needs a fault-decorated fabric (the kill "
             "switch lives on the fault decorators), heartbeats, and a "
             "lease-tracking controller to observe the deaths");
  const int n_images = static_cast<int>(inputs.size());
  const int telemetry_every =
      options.telemetry_every > 0
          ? options.telemetry_every
          : (options.controller != nullptr || options.trace != nullptr ? 1
                                                                       : 0);

  auto fabric = make_fabric(n_devices, options.use_tcp, options.faults, {},
                            options.shaping);
  DataPlaneStats stats;
  const std::vector<TenantModel> tenants{{&model, &weights}};
  Supervisor supervisor = spawn_providers_multi(
      fabric, n_devices, tenants, stats, options.reliability, options.exec, {},
      telemetry_every, options.heartbeat_ms, options.provider_max_restarts);

  // Teardown on every path: close the door (drains in-flight images and
  // releases the providers with kShutdown), close the fabric (releases any
  // provider that missed the frame), join. Nothing may unwind past the
  // live provider threads — a joinable std::thread's destructor is
  // std::terminate.
  std::unique_ptr<serve::StreamServer> server;
  struct Teardown {
    std::unique_ptr<serve::StreamServer>& server;
    ClusterFabric& fabric;
    Supervisor& supervisor;
    void operator()() {
      if (server) server->close();
      fabric.shutdown_all();
      supervisor.join_all();
    }
    ~Teardown() { (*this)(); }
  } teardown{server, fabric, supervisor};

  const std::vector<serve::TenantSpec> fleet{{&model, &weights, strategy}};
  serve::StreamServerOptions door;
  door.max_streams = 1;
  door.default_window = options.inflight;
  door.reliability = options.reliability;
  door.admin = options.admin;
  door.slo_ms = options.slo_ms;
  door.node_origins = &fabric.node_origin_us;
  server = std::make_unique<serve::StreamServer>(fabric.requester(), n_devices,
                                                 fleet, stats, door);
  const int stream = server->open_stream(0, options.inflight);
  if (options.controller != nullptr) {
    options.controller->start_external(strategy);
    server->attach_controller(stream, options.controller);
  }

  ServeResult result;
  result.images = n_images;
  if (options.keep_outputs) {
    result.outputs.reserve(static_cast<std::size_t>(n_images));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto stream_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const auto fail = [&](const char* what, int image) {
    throw Error(std::string(what) + " (image " + std::to_string(image) +
                " of " + std::to_string(n_images) + ")");
  };
  std::size_t next_swap = 0;
  std::size_t next_chaos = 0;
  int submitted = 0;
  int delivered = 0;
  while (delivered < n_images) {
    // Chaos events are keyed on the delivered count, so a schedule is
    // deterministic under any timing: "kill node 2 after 8 deliveries".
    while (next_chaos < options.chaos.size() &&
           options.chaos[next_chaos].at_image <= delivered) {
      const ChaosEvent& ev = options.chaos[next_chaos];
      fabric.set_node_down(ev.node, ev.kill);
      result.chaos_applied_at_s.push_back(stream_s());
      ++next_chaos;
    }
    // Keep the window full without blocking: submit only while the stream
    // has credits. A scripted swap registers right before the image it
    // starts from, so it lands exactly on that image.
    while (submitted < n_images && submitted - delivered < options.inflight) {
      while (next_swap < options.swaps.size() &&
             options.swaps[next_swap].at_image <= submitted) {
        server->swap_strategy(stream, options.swaps[next_swap].strategy);
        ++next_swap;
      }
      if (!server->submit(stream,
                          inputs[static_cast<std::size_t>(submitted)])) {
        fail(server->down() ? "stream transport shut down"
                            : "input extents mismatch",
             submitted);
      }
      ++submitted;
    }
    auto output = server->pop(stream);
    if (!output.has_value()) {
      // A provider failed (its barrier shut the fabric down), a peer sent
      // plan-mismatched chunks, or the gather starved past its timeout
      // budget.
      fail("stream transport shut down or starved mid-gather", delivered);
    }
    ++delivered;
    result.delivered_at_s.push_back(stream_s());
    if (options.keep_outputs) result.outputs.push_back(std::move(*output));
  }
  result.wall_s = stream_s();
  result.measured_ips =
      result.wall_s > 0 ? static_cast<double>(n_images) / result.wall_s : 0.0;
  teardown();

  const serve::StreamSnapshot snap = server->snapshot(stream);
  result.per_image = snap.retries;
  result.reconfigurations = snap.reconfigurations;
  obs::MetricsRegistry& registry = server->metrics();
  if (options.trace != nullptr) {
    // Everything merge_capture needs: the event dump, each node's clock
    // origin, and the door's clock-sync samples.
    options.trace->node_origin_us = fabric.node_origin_us;
    options.trace->dump = obs::TraceRecorder::instance().snapshot();
    for (const auto& sample : server->clock_sync().samples()) {
      options.trace->sync.ingest(sample.node, sample.reported_us,
                                 sample.received_us);
    }
    // Critical-path attribution runs on the merged timeline; the per-device
    // straggler scores also land in the registry so they ride the same
    // /metrics channel as everything else.
    result.attribution =
        obs::attribute_critical_paths(obs::merge_capture(*options.trace));
    for (const auto& dev : result.attribution.devices) {
      registry
          .gauge(std::string(kMetricStragglerScore) +
                 "{node=" + std::to_string(dev.node) + "}")
          .set(dev.score);
    }
  }

  // The stream extras join the door's registry (data-plane totals, latency
  // histograms); the compatibility scalars are views into the snapshot —
  // the canonical names are the same ones run_distributed{,_tcp} report.
  registry.gauge(kMetricStreamWallS).set(result.wall_s);
  registry.gauge(kMetricStreamIps).set(result.measured_ips);
  registry.counter(kMetricStreamReconfigs)
      .set(static_cast<std::int64_t>(result.reconfigurations.size()));
  result.metrics = registry.snapshot();
  result.messages_exchanged = result.metrics.counter(kMetricMessages);
  result.bytes_moved = result.metrics.counter(kMetricPayloadBytes);
  result.wire_bytes = result.metrics.counter(kMetricWireBytes);
  result.bytes_copied = result.metrics.counter(kMetricBytesCopied);
  result.frame_allocs = result.metrics.counter(kMetricFrameAllocs);
  result.retransmits = result.metrics.counter(kMetricRetransmits);
  result.duplicates_dropped = result.metrics.counter(kMetricDupsDropped);
  result.recv_timeouts = result.metrics.counter(kMetricRecvTimeouts);
  result.nacks = result.metrics.counter(kMetricNacks);
  result.chunks_abandoned = result.metrics.counter(kMetricChunksAbandoned);
  result.retx_cancelled = result.metrics.counter(kMetricRetxCancelled);
  result.images_cancelled = result.metrics.counter(kMetricImagesCancelled);
  result.provider_restarts = supervisor.stats().restarts;
  if (options.controller != nullptr) {
    const auto cstats = options.controller->stats();
    result.deaths = cstats.deaths;
    result.joins = cstats.joins;
    result.heartbeats = cstats.heartbeats;
  }

  if (options.latency != nullptr && options.network != nullptr) {
    sim::StreamOptions sim_stream;
    sim_stream.n_images = n_images;
    sim::LinkFaultModel mirror;
    if (options.faults != nullptr) {
      mirror = sim::mirror_faults(options.faults->drop_prob,
                                  options.faults->dup_prob,
                                  options.faults->delay_prob,
                                  0.5 * (options.faults->delay_min_ms +
                                         options.faults->delay_max_ms),
                                  options.reliability.rto_ms,
                                  options.reliability.max_attempts);
      sim_stream.faults = &mirror;
    }
    const auto predicted = sim::stream_images(
        model, strategy, *options.latency, *options.network, sim_stream);
    result.predicted_ips = predicted.ips;
  }
  return result;
}

}  // namespace de::runtime
