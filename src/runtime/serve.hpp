// Pipelined single-stream serving (paper §V-A streaming, on the real data
// plane): the requester keeps up to K images in flight across the
// transport — scattering image seq+K while seq is still being computed —
// and reports the measured wall-clock images/second next to the event
// simulator's prediction for the same strategy.
//
// serve_stream is a thin client of the one serving path: it builds the
// fabric and the provider fleet (runtime::spawn_providers_multi), opens
// one serve::StreamServer stream with window = K, then submits and pops.
// Everything a stream can do — live strategy swaps, an adaptive
// controller, membership recovery, the ops plane, the clock-sync book a
// traced run rebases with — is the front door's; what stays here is the
// client side: scripted swaps registered right before their image,
// the chaos schedule keyed on the delivered count, outputs in pop order,
// and the simulator's prediction.
//
// With ServeOptions::faults the stream runs over a deterministically
// degraded fabric (drops/duplicates/delays/partitions) and the reliability
// protocol keeps it bit-exact; per-image retry/timeout stats land in
// ServeResult::per_image, and a stream that genuinely cannot make progress
// (e.g. a link severed past the retransmit budget) fails loudly within a
// bounded time instead of hanging.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"
#include "obs/attribution.hpp"
#include "obs/trace_export.hpp"
#include "rpc/shaped_transport.hpp"
#include "runtime/cluster.hpp"
#include "runtime/worker.hpp"
#include "sim/stream_sim.hpp"

namespace de::ctrl {
class Controller;
}  // namespace de::ctrl

namespace de::obs {
class AdminServer;
}  // namespace de::obs

namespace de::runtime {

/// A pre-scripted strategy swap: image `at_image` (submission index) is the
/// first one served by `strategy` (deterministic epoch boundaries for
/// tests/benches).
struct ScriptedSwap {
  int at_image = 0;
  sim::RawStrategy strategy;
};

/// One event of a seeded chaos schedule: kill (or revive) device `node`
/// once `at_image` images have been *delivered*. Kills sever both halves of
/// the node's connectivity (ClusterFabric::set_node_down) — its heartbeats
/// stop arriving, the controller's lease lapses, and the membership
/// machinery must recover every in-flight image without corruption; revives
/// restore the links, and the node is re-adopted as a fresh joiner at the
/// next lease poll. Keyed on delivered count so schedules are deterministic
/// under any timing.
struct ChaosEvent {
  int at_image = 0;
  rpc::NodeId node = rpc::kNilNode;
  bool kill = true;  ///< false = revive (rejoin as a fresh joiner)
};

struct ServeOptions {
  int inflight = 4;          ///< K: images concurrently in the pipeline
  bool use_tcp = false;      ///< loopback TCP instead of in-process transport
  bool keep_outputs = false; ///< retain every gathered output (tests)

  /// Reliability protocol knobs; must be enabled when `faults` is set.
  ReliabilityOptions reliability;
  /// Fault plan applied to every node's sends (not owned; may be null).
  const rpc::FaultSpec* faults = nullptr;

  /// Conv/pool engine of the provider workers (bit-exact either way; the
  /// fast default is what makes measured IPS track what the hardware allows).
  cnn::ExecContext exec = cnn::ExecContext::fast_shared();

  /// Chunk path: halo-first zero-copy (default) or the serial copying
  /// baseline — bit-exact either way; bench/runtime_stream A/Bs the two in
  /// one run.
  DataPlaneMode data_plane = DataPlaneMode::kOverlapZeroCopy;

  /// When both are set, `predicted_ips` is filled from sim::stream_images
  /// (sequential-stream semantics — the pipeline should beat it). A fault
  /// plan is mirrored into the simulator's analytic loss model so the
  /// prediction stays comparable to the degraded measurement.
  const sim::ClusterLatency* latency = nullptr;
  const net::Network* network = nullptr;

  /// Trace-driven per-link pacing of every endpoint (not owned; may be
  /// null). This is what makes a loopback fabric exhibit the Fig. 4/12
  /// bandwidth regimes the adaptive control plane reacts to.
  const rpc::ShapingSpec* shaping = nullptr;

  /// Deterministic mid-stream strategy swaps, sorted by at_image (tests
  /// and benches; each lands exactly on its image).
  std::vector<ScriptedSwap> swaps;

  /// Adaptive controller (not owned; may be null, must not be started
  /// yet). serve_stream arms it (start_external) and attaches it to the
  /// stream, whose front door feeds it the fleet's telemetry and heartbeats
  /// and turns its decisions into epochs. Implies telemetry publishing (see
  /// below).
  ctrl::Controller* controller = nullptr;

  /// Providers publish a kTelemetry frame every this many images
  /// (0 = off, unless a controller is set — then it defaults to 1).
  int telemetry_every = 0;

  /// Trace collection (not owned; may be null). When set, serve_stream
  /// snapshots the TraceRecorder into `trace->dump` at end of stream, fills
  /// `trace->node_origin_us` from the fabric, and copies the front door's
  /// clock-sync samples into `trace->sync` — everything obs::merge_capture
  /// needs for one cross-node timeline. The caller enables/disables the
  /// recorder around the stream. Implies telemetry publishing (defaults
  /// telemetry_every to 1 like a controller does).
  obs::TraceCapture* trace = nullptr;

  /// Providers publish a kHeartbeat lease renewal every this many ms
  /// (0 = off). Meaningful with a controller whose lease_ms is set: the
  /// lease must comfortably exceed this period plus one scheduling hiccup.
  int heartbeat_ms = 0;

  /// Supervisor restart budget per provider thread (0 = classic barrier:
  /// first failure tears the fabric down). Chaos runs raise it so a
  /// provider that starved out while its node was "dead" restarts instead.
  int provider_max_restarts = 0;

  /// Seeded kill/revive schedule, sorted by at_image. Requires `faults`
  /// (the kill switch lives on the fault decorators), reliability, and a
  /// controller with lease_ms > 0 to detect and recover from the deaths.
  std::vector<ChaosEvent> chaos;

  /// Live ops plane (not owned; may be null). The stream's front door
  /// registers /metrics (Prometheus text format), /healthz, /membership,
  /// /streams, and /trace/dump on the endpoint for the stream's lifetime
  /// (unrouted at teardown), and arms the TraceRecorder in flight-recorder
  /// mode (see serve::StreamServerOptions::admin).
  obs::AdminServer* admin = nullptr;

  /// Per-image end-to-end latency SLO for /streams (submit -> deliver,
  /// milliseconds; 0 = no target, violations stay 0).
  double slo_ms = 0;
};

struct ServeResult {
  /// Canonical per-run metrics (runtime/runtime_metrics.hpp names), the
  /// same names ClusterResult::metrics uses, plus the stream.* extras, the
  /// latency histograms, and the front door's own series. The scalar
  /// fields below are views into this snapshot, kept for existing callers.
  obs::MetricsSnapshot metrics;
  int images = 0;
  Seconds wall_s = 0;        ///< first submit -> last pop
  double measured_ips = 0;
  double predicted_ips = 0;  ///< 0 when no simulator inputs were given
  std::int64_t messages_exchanged = 0;
  Bytes bytes_moved = 0;
  Bytes wire_bytes = 0;      ///< frame bytes on the wire, headers included
  Bytes bytes_copied = 0;    ///< userspace copies on the chunk path
  std::int64_t frame_allocs = 0;  ///< frame buffers the arenas had to malloc
  /// Reliability-layer totals across the stream (all zero on a clean run).
  std::int64_t retransmits = 0;
  std::int64_t duplicates_dropped = 0;
  std::int64_t recv_timeouts = 0;
  std::int64_t nacks = 0;
  std::int64_t chunks_abandoned = 0;
  /// Membership-layer totals (all zero on a stable fleet).
  std::int64_t retx_cancelled = 0;    ///< outbox entries fast-failed at death
  std::int64_t images_cancelled = 0;  ///< in-flight images voided+re-dispatched
  int deaths = 0;                     ///< devices removed by lease expiry
  int joins = 0;                      ///< devices adopted (revival/joiner)
  std::int64_t heartbeats = 0;        ///< lease renewals the controller folded
  std::int64_t provider_restarts = 0; ///< supervisor restarts granted
  /// Stream time (seconds since start) each image was delivered, in
  /// delivery order — windowed-IPS / recovery-dip analysis (bench_churn).
  std::vector<double> delivered_at_s;
  /// Stream time each chaos event was applied, in schedule order.
  std::vector<double> chaos_applied_at_s;
  /// Per-image retry/timeout stats observed by the door's gather.
  std::vector<ImageRetryStats> per_image;
  std::vector<cnn::Tensor> outputs;  ///< filled iff keep_outputs, input order
  /// Every live strategy swap the stream performed (scripted + adaptive).
  std::vector<ReconfigEvent> reconfigurations;
  /// Per-image critical-path breakdowns and per-device straggler scores,
  /// computed from the merged trace when `options.trace` was set (empty
  /// otherwise). The straggler scores are also exported as
  /// attribution.straggler_score{node=N} gauges in `metrics`.
  obs::AttributionReport attribution;
};

/// Streams `inputs` through the cluster with `options.inflight` images in
/// flight. Every input must match the model's input extents (a mismatched
/// one is refused by the front door and fails the stream with de::Error).
ServeResult serve_stream(const cnn::CnnModel& model,
                         const sim::RawStrategy& strategy,
                         const std::vector<cnn::ConvWeights>& weights,
                         std::span<const cnn::Tensor> inputs, int n_devices,
                         const ServeOptions& options = {});

}  // namespace de::runtime
