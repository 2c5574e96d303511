// ShapedTransport: a Transport decorator that paces every outgoing frame at
// the throughput a net::ThroughputTrace prescribes — the piece that lets a
// loopback TCP (or in-process) cluster actually *exhibit* the Fig. 4 / 12
// bandwidth regimes instead of running at memory speed, so the adaptive
// control plane has something real to react to (DESIGN.md §control-plane).
//
// Model: every node hangs off the router by its own radio (net::Network
// semantics), so the rate of link u -> v at time t is
// min(trace_u(t), trace_v(t)). Each frame on a link occupies the link for
// bytes / rate seconds: frame n may start only when frame n-1 finished
// (per-link virtual clock `next_free`), and it is delivered to the inner
// transport when its transmission completes. Delivery happens on a single
// pacer thread (a TimedFrameQueue) ordered by (due time, enqueue sequence),
// so per-link FIFO — the ordering guarantee every protocol above relies
// on — is preserved exactly. Loopback sends (to.node == local_node())
// bypass shaping, like the fault injector's.
//
// `time_scale` plays traces faster than real time: trace second
// t_wall * time_scale is sampled at wall second t_wall, while transmission
// *durations* stay real — a 60-minute Fig. 12 trace replayed at
// time_scale=60 sweeps its regimes in one minute of wall time without
// changing what any single transfer costs. All endpoints of one fabric
// share a common epoch (`start`), so their regime switches line up.
//
// The shaper doubles as the telemetry ground truth: it tracks, per link,
// the bytes moved and the virtual transmission time they occupied, and
// sample_link_rates() returns the achieved Mbps per link over the window
// since the previous sample — exactly what a real endpoint would measure
// from its own transfer timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "net/trace.hpp"
#include "rpc/timed_queue.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire.hpp"

namespace de::rpc {

/// Per-fabric shaping plan: one trace per node (providers 0..n-1, requester
/// at index n), shared by every endpoint's decorator so link u -> v is
/// bottlenecked by min of the two endpoint traces — the same model
/// net::Network uses for its transfer times.
struct ShapingSpec {
  std::vector<net::ThroughputTrace> node_traces;
  double time_scale = 1.0;  ///< trace seconds advanced per wall second

  /// Every node shaped at the same constant rate.
  static ShapingSpec uniform(int n_nodes, Mbps rate);
};

/// Anything that can report per-link achieved throughput over a window —
/// implemented by ShapedTransport, consumed by the telemetry publisher in
/// the provider loop and by the controller for the requester's own links.
class LinkRateSampler {
 public:
  virtual ~LinkRateSampler() = default;

  /// Achieved Mbps per destination link since the previous call (links with
  /// no traffic in the window are omitted). Resets the window.
  virtual std::vector<LinkRateSample> sample_link_rates() = 0;
};

class ShapedTransport final : public Transport, public LinkRateSampler {
 public:
  /// Decorates `inner` (not owned; must outlive this object). `spec` is
  /// copied; `start` anchors trace time 0 and should be shared by every
  /// endpoint of one fabric so regime switches align.
  ShapedTransport(Transport& inner, ShapingSpec spec,
                  std::chrono::steady_clock::time_point start =
                      std::chrono::steady_clock::now());
  ~ShapedTransport() override;

  ShapedTransport(const ShapedTransport&) = delete;
  ShapedTransport& operator=(const ShapedTransport&) = delete;

  NodeId local_node() const override { return inner_.local_node(); }
  Address open_mailbox(MailboxId id) override { return inner_.open_mailbox(id); }
  void send(const Address& to, Frame frame) override;
  std::optional<Frame> receive(MailboxId id) override {
    return inner_.receive(id);
  }
  std::optional<Frame> try_receive(MailboxId id) override {
    return inner_.try_receive(id);
  }
  RecvStatus receive_for(MailboxId id, int timeout_ms, Frame& out) override {
    return inner_.receive_for(id, timeout_ms, out);
  }
  std::size_t pending(MailboxId id) const override {
    return inner_.pending(id);
  }

  /// Stops the pacer (frames still in transmission are lost with the link)
  /// and shuts the inner transport down. Idempotent.
  void shutdown() override;

  std::vector<LinkRateSample> sample_link_rates() override;

  /// The link rate u -> v the spec prescribes at wall time `now` (what a
  /// send at `now` would be paced at).
  Mbps link_rate(NodeId to, std::chrono::steady_clock::time_point now) const;

 private:
  struct LinkWindow {
    Bytes bytes = 0;
    double busy_s = 0;  ///< virtual transmission time the bytes occupied
  };

  Transport& inner_;
  const ShapingSpec spec_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;  ///< guards next_free_, window_, down_; held
                           ///< across each push so pushes keep due order
  std::map<NodeId, std::chrono::steady_clock::time_point> next_free_;
  std::map<NodeId, LinkWindow> window_;
  bool down_ = false;
  TimedFrameQueue pacer_;
};

}  // namespace de::rpc
