// Multi-tenant serving front door (DESIGN.md §serving-front-door): one
// process-wide pump thread multiplexes any number of concurrent client
// streams onto a single shared provider fleet.
//
//   clients ──> per-stream input queues ──> pump ──> dispatch + scatter
//     ^   (admission, window credits)        │        (global fleet seq,
//     │                                      v         cross-stream batch)
//   per-stream output queues  <── gather (global-seq order)
//
// Each admitted stream gets its own epoch lane (runtime::push_stream_epoch)
// and an in-flight window of `window` images: a stream may have at most
// `window` images anywhere between submit() and pop(). Credits are consumed
// at dispatch and returned at pop, so a consumer that stops popping stalls
// only its own stream — the pump simply skips streams without credits and
// keeps batching the others onto the fleet (no cross-stream head-of-line
// blocking). Per-stream strategy swaps never touch any other stream's
// lane: an explicit swap_strategy() takes effect at the stream's next
// *submitted* image (so a scripted swap lands exactly where it was called),
// an attached per-tenant controller's decision at its next dispatched one.
// Every swap is logged per stream (StreamSnapshot::reconfigurations).
//
// The door also rides fleet churn (DESIGN.md §membership): kHeartbeat
// frames on the shared telemetry mailbox feed every attached controller's
// lease book, a death decision cancels the in-flight window and re-queues
// those inputs for fresh dispatch under the survivor strategy (outputs stay
// bit-exact, nothing is silently dropped), and streams without their own
// controller are re-aimed by masking their current strategy over the
// survivors. Closed, fully drained streams get their epoch lanes evicted
// fleet-wide (kLaneEvict), so a long-gone stream pins no history.
//
// The door is the fleet's one collector: it drains the shared telemetry
// mailbox, feeds every kTelemetry/kHeartbeat steady-clock sample into its
// clock-sync book (what /trace/dump and traced clients rebase provider
// clocks with), and fans the frames into the attached controllers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/controller.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace_export.hpp"
#include "runtime/worker.hpp"

namespace de::obs {
class AdminServer;
}  // namespace de::obs

namespace de::serve {

/// One tenant model the fleet serves. `strategy` seeds every new stream of
/// this model; per-stream swaps replace it per lane, never here. The model
/// and weights are not owned and must outlive the server.
struct TenantSpec {
  const cnn::CnnModel* model = nullptr;
  const std::vector<cnn::ConvWeights>* weights = nullptr;
  sim::RawStrategy strategy;
};

struct StreamServerOptions {
  int max_streams = 16;    ///< admission cap on concurrently open streams
  int default_window = 4;  ///< per-stream in-flight window when hello says 0
  runtime::ReliabilityOptions reliability;
  runtime::DataPlaneMode mode = runtime::DataPlaneMode::kOverlapZeroCopy;
  /// Live ops plane (not owned; may be null). When set, the door registers
  /// /metrics (front-door registry: data-plane totals + queue-depth
  /// gauges), /healthz (503 once the pump failed), /membership (first
  /// attached tenant controller's lease book), and /streams (per-stream
  /// delivered/occupancy/latency-percentile/credit-stall accounting) for
  /// the server's lifetime; routes come down at close(), before the state
  /// the handlers capture dies.
  obs::AdminServer* admin = nullptr;
  /// Per-image submit->pop-ready SLO for every stream's /streams row
  /// (milliseconds; 0 = no target, violations stay 0).
  double slo_ms = 0;
  /// Per-node clock origins (the fabric's node_origin_us; not owned; may
  /// be null). When set alongside `admin`, the door also serves
  /// /trace/dump — flight-recorder snapshots merged onto one timeline.
  /// Without origins the dump cannot rebase provider clocks, so the route
  /// is not registered. The door's own origin (index n_devices) is also
  /// the clock its clock-sync book stamps receive times with.
  const std::vector<std::int64_t>* node_origins = nullptr;
};

/// Point-in-time view of one stream's serving accounting.
struct StreamSnapshot {
  int model_id = 0;
  int window = 0;
  int epochs_pushed = 0;  ///< lane epochs announced (1 = never swapped)
  std::int64_t submitted = 0;
  std::int64_t delivered = 0;  ///< outputs handed to pop()
  std::vector<double> latency_ms;  ///< submit -> gather-complete, per image
  /// The door's gather timeouts per image, in submission order.
  std::vector<runtime::ImageRetryStats> retries;
  /// Pump rounds that skipped this stream because it held queued input but
  /// no window credits (slow consumer) — the head-of-line-avoidance signal.
  std::int64_t credit_stalls = 0;
  /// Every swap epoch pushed on the stream's lane (explicit, controller
  /// and membership), in push order.
  std::vector<runtime::ReconfigEvent> reconfigurations;
};

class StreamServer {
 public:
  /// `door` must be the fleet's requester endpoint (node n_devices) with
  /// the data/ctrl/telemetry/serve mailboxes open and the provider threads
  /// already running provider_loop_multi over the same `fleet` registry.
  StreamServer(rpc::Transport& door, int n_devices,
               std::span<const TenantSpec> fleet,
               runtime::DataPlaneStats& stats,
               StreamServerOptions options = {});
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Admission control: opens a stream of tenant `model_id` with in-flight
  /// window `window` (0 = options.default_window). Returns the stream id,
  /// or -1 when the stream cap is reached, the model id is unknown, or the
  /// request is malformed (negative window).
  int open_stream(int model_id, int window = 0);

  /// Queues one input image; blocks while the stream's window is full
  /// (window = images anywhere between submit and pop). False when the
  /// stream is closed, the server went down, or the tensor does not match
  /// the stream's tenant model input (refused at the door, so a bad input
  /// never reaches the pump or a provider).
  bool submit(int stream, cnn::Tensor input);

  /// Pops the stream's next output in submission order, blocking until one
  /// is ready. Returns the window credit. nullopt once the stream is
  /// closed *and* fully drained (or the server went down).
  std::optional<cnn::Tensor> pop(int stream);

  /// Registers `strategy` as the stream's next epoch, effective from the
  /// stream's next *submitted* image (the one submit() queues after this
  /// call). Other streams' lanes are untouched. Throws de::Error when the
  /// strategy does not fit the stream's tenant model.
  void swap_strategy(int stream, const sim::RawStrategy& strategy);

  /// Fans every fleet telemetry frame into `controller` (which must be in
  /// start_external mode; not owned, must outlive the server) and applies
  /// its take_swap() decisions to this stream only — the PR-5 adaptive
  /// loop, per tenant.
  void attach_controller(int stream, ctrl::Controller* controller);

  /// No more submissions on `stream`; in-flight images still drain to
  /// pop().
  void close_stream(int stream);

  /// Ends serving: drains in-flight images, discards queued-but-
  /// undispatched inputs, releases the providers with kShutdown and joins
  /// the pump. Idempotent; also run by the destructor. Callers that want
  /// every output must pop them before closing.
  void close();

  StreamSnapshot snapshot(int stream) const;

  /// The door's metrics registry — what /metrics serves — refreshed:
  /// data-plane totals folded, queue depths sampled, stream totals set.
  /// Also carries the stream.gather_latency_us and stream.image_latency_us
  /// histograms the pump records per image. Callers may add series.
  obs::MetricsRegistry& metrics();

  /// Steady-clock samples from every kTelemetry/kHeartbeat frame the door
  /// drained, receive times on the door's node-local clock.
  const obs::ClockSyncBook& clock_sync() const { return clock_sync_; }

  int fleet_size() const { return static_cast<int>(fleet_.size()); }
  bool down() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued input: the pixels, its submit stamp, and its stream-local
  /// submission index (what swap_strategy boundaries are keyed on).
  struct Input {
    cnn::Tensor tensor;
    Clock::time_point t0;
    int index = 0;
  };

  /// A registered swap not yet pushed: effective from the stream's image
  /// `from_image`; `event` carries the details the log records with it.
  struct PendingSwap {
    int from_image = 0;
    sim::RawStrategy strategy;
    runtime::ReconfigEvent event;
  };

  struct Stream {
    int model_id = 0;
    int window = 0;
    int credits = 0;  ///< window minus images dispatched-but-not-popped
    bool closed = false;
    bool lane_open = false;
    bool evicted = false;  ///< lane history reclaimed (closed + drained)
    int epochs_pushed = 0;
    Clock::time_point opened;
    /// Strategy the lane's current epoch runs — the base a fleet-death
    /// masking redistributes from for streams without their own controller.
    sim::RawStrategy current;
    std::deque<PendingSwap> swaps;  ///< registration order
    ctrl::Controller* controller = nullptr;
    std::deque<Input> inputs;
    std::deque<cnn::Tensor> outputs;
    std::int64_t submitted = 0;
    std::int64_t delivered = 0;
    std::vector<double> latency_ms;
    std::vector<runtime::ImageRetryStats> retries;
    std::vector<runtime::ReconfigEvent> reconfigs;
    /// Rolling-percentile window for /streams (shared_ptr: SloWindow holds
    /// a mutex, and Stream must stay movable for the map emplace).
    std::shared_ptr<obs::SloWindow> slo;
    std::int64_t credit_stalls = 0;  ///< see StreamSnapshot::credit_stalls
  };

  void pump();
  /// Registers/unroutes the ops-plane endpoints (constructor / close()).
  /// unregister is a handler barrier: after it returns no scrape thread is
  /// inside a handler, so `this` may die.
  void register_admin();
  void unregister_admin();
  /// Opens/refreshes stream `id`'s lane so its image `index`, about to be
  /// dispatched at global seq `from_seq`, runs under the right epoch: every
  /// registered swap due at `index` and the attached controller's pending
  /// drift decision are pushed (and logged) first.
  void prepare_lane(runtime::RequesterContext& ctx, int id, int from_seq,
                    int index);
  /// (stream, controller) of every stream with an attached controller.
  std::vector<std::pair<int, ctrl::Controller*>> controllers() const;

  rpc::Transport& door_;
  const int n_devices_;
  std::vector<TenantSpec> fleet_;
  runtime::DataPlaneStats& stats_;
  const StreamServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_client_;  ///< wakes submit/pop waiters
  std::condition_variable cv_pump_;    ///< wakes the pump for new work
  std::map<int, Stream> streams_;
  int next_stream_ = 0;
  bool closing_ = false;
  bool down_ = false;  ///< pump failed (transport loss / starved gather)
  int last_swap_epoch_ = -1;  ///< newest swap epoch on any lane (/membership)
  /// Pump's retransmitter while it lives (guarded by mu_): the /metrics
  /// handler samples its outbox depth, and the pump nulls this before the
  /// retransmitter dies.
  runtime::Retransmitter* rtx_ = nullptr;

  /// Front-door metrics registry: data-plane totals folded per scrape,
  /// queue-depth gauges sampled per scrape and per gathered image, latency
  /// histograms recorded per gathered image.
  obs::MetricsRegistry registry_;
  obs::Histogram& gather_latency_;  ///< gather_image wall time, us
  obs::Histogram& image_latency_;   ///< submit -> gather-complete, us
  std::vector<std::string> admin_paths_;  ///< registered ops-plane routes

  /// This door's node-local clock origin (0 without node_origins).
  const std::int64_t clock_origin_us_;
  obs::ClockSyncBook clock_sync_;

  std::thread pump_thread_;
};

}  // namespace de::serve
